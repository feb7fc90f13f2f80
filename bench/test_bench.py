"""Tests of the benchmark itself: run with `python3 -m pytest bench`."""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


@pytest.fixture(scope="module")
def results():
    """One minimal run, a single pass, of every workload in both modes."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = proc.stdout.splitlines()
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_minimal_run_emits_every_named_metric(results, workload, trace):
    lines = results[workload, trace]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    failed_frac = [line.split() for line in lines if line.startswith("failed_frac ")]
    assert failed_frac and float(failed_frac[0][1]) == 0


def test_traced_runs_separate_the_layers(results):
    def layer(workload, name):
        return json.loads(results[workload, 1][-1])["metrics"][name]["value"]

    def share(workload):
        wall_s = next(line.split()[1] for line in results[workload, 0] if line.startswith("wall_s "))
        return layer(workload, "pure.min_degree_sequence.self_s") / float(wall_s)

    assert share("decompose") > share("census")
    assert layer("shuffle", "greedy.greedy_decompose.calls") == 0
    assert layer("census", "greedy.greedy_decompose.calls") == 1002


def test_census_output_has_the_readme_counts():
    program = run.Runner(run.load_program())
    codim4, codim5 = (program(*op[:2])[1] for op in workloads.census_ops(0))
    assert ("tuples swept: 210\n" in codim4
            and "signatures without multiple elimination: 12\n" in codim4
            and "first-elimination predicate agreement: 210/210\n" in codim4)
    assert ("tuples swept: 792\n" in codim5 and "distinct signatures: 317\n" in codim5
            and "signatures without multiple elimination: 271\n" in codim5)


def test_generator_time_stays_with_the_generator():
    tracer = spans.Tracer()

    def items():
        for _ in range(3):
            end = perf_counter() + 0.01
            while perf_counter() < end:
                pass
            yield 1

    producer = tracer._wrap(spans.NAMES.index("shuffle.shuffles"), items, None)
    consumer = tracer._wrap(spans.NAMES.index("shuffle.shuffle_product"),
                            lambda: sum(producer()), None)
    assert consumer() == 3
    calls, self_s = tracer.totals()
    assert calls["shuffle.shuffles"] == calls["shuffle.shuffle_product"] == 1
    assert self_s["shuffle.shuffles"] >= 0.03 > self_s["shuffle.shuffle_product"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("census", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_inputs_depend_only_on_the_seed(tmp_path):
    digests = []
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / name).mkdir()
        ops = workloads.make_ops("decompose", seed, tmp_path / name)
        digests.append(workloads.inputs_digest(ops))
    assert digests[0] == digests[1] != digests[2]
    assert workloads.inputs_digest(workloads.shuffle_ops(5)) == workloads.inputs_digest(
        workloads.shuffle_ops(5))


def test_chains_have_the_requested_cells():
    chain = workloads.random_chain(random.Random(1), 7, 50, 120)
    assert len(chain) == 50
    assert all(c != d and all(a <= b for a, b in zip(c, d)) for c, d in zip(chain, chain[1:]))
    assert len({(i, di) for d in chain for i, di in enumerate(d)}) == 120


def _corrupt(output):
    """The same output with one coefficient (or, for text, one digit) wrong."""
    if isinstance(output, tuple):  # CLI: (exit code, text)
        code, text = output
        at = next(k for k, ch in enumerate(text) if ch.isdigit())
        return code, text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    if hasattr(output, "items"):  # a Diagram
        entries = dict(output.items())
        key = next(iter(entries))
        entries[key] += 1
        return type(output)(entries)
    terms = list(output)
    terms[0] = (terms[0][0] + Fraction(1, 2), terms[0][1])
    return terms


def _one_op_per_kind(tmp_path):
    decompose = workloads.decompose_ops(4, tmp_path)
    shuffle = {op[0]: op for op in reversed(workloads.shuffle_ops(4))}
    koszul, chain = decompose[0], decompose[workloads.DECOMPOSE_KOSZUL]
    return [workloads.census_ops(0)[0], koszul, chain, *shuffle.values()]


def test_checkers_reject_a_corrupted_output(tmp_path):
    program = run.Runner(run.load_program())
    ops = [(op, program.prepare(op)) for op in _one_op_per_kind(tmp_path)]
    assert len(ops) == 7
    for op, prepared in ops:
        output = program(*prepared)
        assert workloads.check(op, output), op[0]
        assert not workloads.check(op, _corrupt(output)), op[0]

    tally = run.Tally()
    run.run_passes("shuffle", ops, lambda *p: _corrupt(program(*p)), 0, tally)
    assert tally.attempted == len(ops) and tally.failed == len(ops)

    def raises(*_):
        raise ValueError("boom")

    for call in (raises, lambda *_: (0, "not\ta term")):
        tally = run.Tally()
        run.run_passes("shuffle", ops, call, 0, tally)
        assert tally.failed == tally.attempted == len(ops)
