"""Benchmark of bsdecomp: census sweep, large-diagram decompose, shuffle expansion.

    python3 bench/run.py --workload census|decompose|shuffle --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  One process and one thread drive a closed loop: each
operation starts when the previous one returns, the way a single user
waits on each command.  A pass is the workload's fixed list of
operations; passes repeat until `--seconds` of operation time is spent.
Every output is checked exactly, outside the timed section, and one that
raised or is wrong counts as failed.

`--trace 0` reports the end-to-end metrics: set-up time of a fresh
process (median of probes made before every pass, each scaled by the
speed of a fixed reference computation the probe times), the median pass
time relative to the same reference timed between the operations, and
peak resident memory.  Raw pass time, work per second and, for
`decompose`, latency percentiles are printed as report lines above the
result.  `--trace 1` runs untraced passes for half the time and traced
passes for the other half, and reports per-layer calls and self time per
pass, counts, and the tracing overhead; its spans are written to
`bench/out/`.  The last line of standard output is one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 3  # per pass, so that the probes sample the whole run
# The warm-up call each fresh process makes, per workload.
WARMUP = {
    "census": ["census", "--codim", "4", "--max-degree", "6", "--strict"],
    "decompose": ["decompose", "--degrees", "3,5,7,11,13"],
    "shuffle": ["ci-shuffle", "--degrees", "1,2,3,4"],
}
# A set-up probe.  A fresh interpreter times its own import of bsdecomp
# and one warm-up call, which every CLI invocation pays on top of the bare
# interpreter start, then times the reference (median of 5) and prints
# both.  The reference is imported only after the timed section.
PROBE = """
import contextlib, io, sys, time
src, bench, *argv = sys.argv[1:]
start = time.perf_counter()
sys.path.insert(0, src)
import bsdecomp, bsdecomp.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = bsdecomp.cli.main(argv)
setup = time.perf_counter() - start
sys.path.insert(0, bench)
import workloads
terms = workloads.reference_terms()
print(setup, sorted(workloads.reference_s(terms) for _ in range(5))[2])
sys.exit(code)
"""
# The reference: a short exact sum of pure diagrams in plain Python,
# without bsdecomp, of the same kind of work as the program (Fractions,
# tuples, dicts).  A shared machine's speed can drift by tens of percent
# within seconds and times drift with it.  Timing the reference after
# every operation samples that speed across the pass, and a pass time
# divided by the mean reference time cancels most of the drift.  Set-up
# time is divided by the reference time of the same probe and reported
# in seconds of a machine on which the reference takes
# REFERENCE_NOMINAL_S, about its time with Python 3.11 on a 2-vCPU VM;
# the raw median is printed as setup_raw_s.
REFERENCE_SHARE = 0.03  # least reference time after an operation, as a share of its time
REFERENCE_NOMINAL_S = 0.006
REFERENCE_TERMS = workloads.reference_terms()
ITEM_NAMES = {"census": "tuples_per_s", "decompose": "diagrams_per_s", "shuffle": "terms_per_s"}


def load_program():
    """Import bsdecomp from this checkout's src/, or raise FileNotFoundError."""
    package = SRC / "bsdecomp"
    if not (package / "__init__.py").is_file() or not (package / "cli.py").is_file():
        raise FileNotFoundError(f"no bsdecomp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bsdecomp
    import bsdecomp.cli
    import bsdecomp.diagram
    import bsdecomp.shuffle

    if Path(bsdecomp.__file__).resolve().parent != package.resolve():
        raise FileNotFoundError(f"bsdecomp was imported from {bsdecomp.__file__}, not {package}")
    return bsdecomp


def measure_setup(workload, samples):
    """Append (set-up seconds, reference seconds) of fresh interpreters."""
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), *WARMUP[workload]],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {probe.returncode}: {probe.stderr}")
        setup, reference = map(float, probe.stdout.split())
        samples.append((setup, reference))


class Runner:
    """Calls the program for one operation, looking names up at call time."""

    def __init__(self, bsdecomp):
        self.pkg = bsdecomp

    def prepare(self, op):
        """Turn an operation's argument into the objects the program takes."""
        kind, arg, expected = op
        if kind == "tensor":
            arg = tuple(self.pkg.diagram.Diagram(entries) for entries in arg)
        return kind, arg

    def __call__(self, kind, arg):
        mod = self.pkg.shuffle
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.pkg.cli.main(arg)
            return code, out.getvalue()
        if kind == "ci_shuffle":
            return mod.ci_shuffle_decomposition(arg)
        if kind == "shuffle_product":
            return mod.shuffle_product(arg)
        if kind == "quotient":
            return mod.quotient_by_regular_element(*arg)
        if kind == "tensor":
            return mod.tensor(*arg)
        raise ValueError(f"unknown operation kind {kind!r}")


class Tally:
    """Pass times, operation latencies, work done and failures of a run."""

    def __init__(self):
        self.pass_s = []
        self.pass_rel = []  # pass time / mean reference time within the pass
        self.reference_s = []  # mean reference time per pass
        self.latency_s = []
        self.items = []  # work items per pass
        self.merged = 0  # terms returned by shuffle_product and quotient
        self.attempted = 0
        self.failed = 0
        self.verdicts = {}  # (operation index, output digest) -> check result


def _digest(output):
    """sha256 of an output's repr, taken term by term so a large sum is never copied whole."""
    h = hashlib.sha256()
    for part in getattr(output, "terms", (output,)):
        h.update(repr(part).encode())
    return h.hexdigest()


def run_passes(workload, ops, call, seconds, tally, before_pass=None):
    """Run whole passes over `ops` until `seconds` of operation time is spent.

    Each output is checked outside the timed call; an output equal to one
    already checked reuses that verdict.
    """
    spent = 0.0
    first = True
    while first or spent < seconds:
        first = False
        if before_pass is not None:
            before_pass()
        total = 0.0
        items = 0
        references = [workloads.reference_s(REFERENCE_TERMS)]
        for index, (op, prepared) in enumerate(ops):
            start = perf_counter()
            try:
                output = call(*prepared)
            except Exception:  # a failed operation must not stop the run
                traceback.print_exc(file=sys.stderr)
                output = None
            elapsed = perf_counter() - start
            sampled = 0.0
            while not sampled or sampled < REFERENCE_SHARE * elapsed:
                references.append(workloads.reference_s(REFERENCE_TERMS))
                sampled += references[-1]
            total += elapsed
            tally.latency_s.append(elapsed)
            tally.attempted += 1
            if output is None:
                tally.failed += 1
                continue
            key = (index, _digest(output))
            if key not in tally.verdicts:
                try:
                    tally.verdicts[key] = workloads.check(op, output)
                except Exception:  # output too malformed to check: a wrong one
                    traceback.print_exc(file=sys.stderr)
                    tally.verdicts[key] = False
            if not tally.verdicts[key]:
                tally.failed += 1
                continue
            items += workloads.work_items(workload, op, output)
            if op[0] in ("shuffle_product", "quotient"):
                tally.merged += len(output)
        reference = statistics.mean(references)
        tally.pass_s.append(total)
        tally.pass_rel.append(total / reference)
        tally.reference_s.append(reference)
        tally.items.append(items)
        spent += total


def git_rev():
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    # The ceiling stops git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False, env=env).stdout
    except OSError:  # no git installed
        return "unknown"
    return out.strip() or "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, tally, setup):
    passes = len(tally.pass_s)
    wall_s = statistics.median(tally.pass_s)
    metrics = {
        "setup_s": metric(REFERENCE_NOMINAL_S * statistics.median(s / r for s, r in setup), "s"),
        "wall_rel": metric(statistics.median(tally.pass_rel), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"setup_s": len(setup), "wall_rel": passes, "peak_rss_mb": 1}
    report = {
        "setup_raw_s": (statistics.median(s for s, _ in setup), "s", len(setup)),
        "wall_s": (wall_s, "s", passes),
        "reference_s": (statistics.median(tally.reference_s), "s", passes),
        ITEM_NAMES[workload]: (statistics.median(tally.items) / wall_s, "1/s", passes),
    }
    if workload == "decompose":
        ms = [1000 * s for s in tally.latency_s]
        report["decompose_ms_p50"] = (statistics.median(ms), "ms", len(ms))
        report["decompose_ms_p90"] = (statistics.quantiles(ms, n=10)[-1], "ms", len(ms))
    return metrics, samples, report


def per_layer(tracer, traced, untraced):
    passes = len(traced.pass_s)
    calls, self_s = tracer.totals()
    metrics = {}
    for name in spans.NAMES:
        metrics[f"{name}.calls"] = metric(calls[name] / passes, "count")
        metrics[f"{name}.self_s"] = metric(self_s[name] / passes, "s")
    c = tracer.counters
    iterations = c["greedy.iterations"]
    interleavings = c["shuffle.interleavings"]
    metrics["greedy.iterations"] = metric(iterations / passes, "count")
    metrics["greedy.cells_per_iteration"] = metric(
        c["greedy.cells"] / iterations if iterations else 0.0, "ratio")
    metrics["shuffle.interleavings"] = metric(interleavings / passes, "count")
    metrics["shuffle.merge_ratio"] = metric(
        traced.merged / interleavings if interleavings else 0.0, "ratio")
    metrics["trace_overhead_frac"] = metric(
        statistics.median(traced.pass_rel) / statistics.median(untraced.pass_rel) - 1, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = load_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT)
    try:
        ops = workloads.make_ops(args.workload, args.seed, inputs)
        digest = workloads.inputs_digest(ops)
        runner = Runner(pkg)
        prepared = [(op, runner.prepare(op)) for op in ops]
        runner("cli", WARMUP[args.workload])

        untraced = Tally()
        if not args.trace:
            setup = []
            run_passes(args.workload, prepared, runner, args.seconds, untraced,
                       before_pass=lambda: measure_setup(args.workload, setup))
            metrics, samples, report = end_to_end(args.workload, untraced, setup)
            tallies = [untraced]
        else:
            run_passes(args.workload, prepared, runner, args.seconds / 2, untraced)
            tracer = spans.Tracer()
            tracer.install()
            traced = Tally()
            run_passes(args.workload, prepared, runner, args.seconds / 2, traced)
            metrics = per_layer(tracer, traced, untraced)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            samples = {"untraced_passes": len(untraced.pass_s), "traced_passes": len(traced.pass_s),
                       "spans": len(tracer.spans)}
            report = {}
            tallies = [untraced, traced]
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    report["failed_frac"] = (failed / attempted, "ratio", attempted)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_rev": git_rev(), "src_lines": src_lines(), "inputs_sha256": digest,
        "operations_per_pass": len(ops), "samples": samples,
    }
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    for name, (value, unit, n) in report.items():
        print(f"{name:48s} {value:.6g} {unit}  (n={n})")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
