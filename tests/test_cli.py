import argparse
import io
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from bsdecomp.cli import build_parser, main, run
from bsdecomp.closed_forms import first_elimination
from reference import ELIM_TABLE_1_2_4_8

GOLDEN = Path(__file__).parent / "golden"


def invoke(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = run(args, out)
    return code, out.getvalue()


class TestDecompose:
    def test_eq1_golden(self):
        code, text = invoke(["decompose", "--degrees", "1,2,4,8"])
        lines = text.splitlines()
        assert code == 0
        assert len(lines) == 12
        assert lines[0] == "168\t(0,1,3,7,15)"
        assert lines[-1] == "168\t(0,8,12,14,15)"

    def test_elim_table_flag(self):
        code, text = invoke(["elim-table", "--degrees", "1,2,4,8"])
        assert code == 0
        got = [line.split() for line in text.strip().splitlines()]
        want = [line.split() for line in ELIM_TABLE_1_2_4_8.splitlines()]
        assert got == want

    def test_roundtrip_via_file(self, tmp_path):
        _, betti = invoke(["ci-betti", "--degrees", "2,3,7"])
        path = tmp_path / "d.betti"
        path.write_text(betti)
        _, from_file = invoke(["decompose", "--in", str(path)])
        _, direct = invoke(["decompose", "--degrees", "2,3,7"])
        assert from_file == direct

    def test_empty_file_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "empty.betti"
        path.write_text("BETTI 1\n")
        code = main(["decompose", "--in", str(path)])
        assert code == 1
        assert "NotInCone" in capsys.readouterr().err


class TestOtherCommands:
    def test_ci_betti_format(self):
        code, text = invoke(["ci-betti", "--degrees", "1,2"])
        assert code == 0
        assert text == "BETTI 1\n0\t0\t1\n1\t1\t1\n1\t2\t1\n2\t3\t1\n"

    def test_closed_form(self):
        code, text = invoke(["closed-form", "--degrees", "2,3,7"])
        assert code == 0
        assert text.splitlines()[0] == "60\t(0,2,5,12)"

    def test_closed_form_codim4_fails(self, capsys):
        code = main(["closed-form", "--degrees", "1,2,3,4"])
        assert code == 1
        assert "UnsupportedCodimension" in capsys.readouterr().err

    def test_predict_first_elim(self):
        assert invoke(["predict-first-elim", "--degrees", "1,2,4,8"])[1] == "Column1\n"
        assert invoke(["predict-first-elim", "--degrees", "3,4,5,7"])[1] == "Column2\n"
        # 4(5 + 2*6 + 16) == 6(6 + 16): the paper's equality branch.
        assert invoke(["predict-first-elim", "--degrees", "4,5,6,16"]) == (0, "Multiple\n")

    @pytest.mark.parametrize("degrees", [(1, 2, 3), (1, 2, 3, 4, 5)])
    def test_predict_first_elim_other_codims(self, degrees, capsys):
        assert main(["predict-first-elim", "--degrees", ",".join(map(str, degrees))]) == 0
        (column,) = first_elimination(degrees)
        assert capsys.readouterr() == (f"Column{column}\n", "")

    def test_predict_first_elim_requires_strict(self, capsys):
        assert main(["predict-first-elim", "--degrees", "2,2,3,4"]) == 1
        assert capsys.readouterr() == (
            "", "RequiresStrictDegrees: degrees must be strictly increasing: (2, 2, 3, 4)\n"
        )

    def test_shuffle(self):
        code, text = invoke(["shuffle", "--seq", "0,3,5", "--seq", "0,1,6"])
        assert code == 0
        assert len(text.splitlines()) == 6
        assert text.splitlines()[0] == "1\t(0,3,5,6,11)"

    def test_shuffle_cap_flag(self, capsys):
        # 10! interleavings of ten one-step factors: refused at the fixed cap.
        code = main(["shuffle"] + ["--seq", "0,1"] * 10)
        assert code == 1
        assert capsys.readouterr() == ("", "SizeExceeded: 3628800 shuffles exceed the cap of 1000000\n")

    def test_ci_shuffle(self):
        code, text = invoke(["ci-shuffle", "--degrees", "2,3,4,7"])
        assert code == 0
        lines = text.splitlines()
        assert len(lines) == 24
        assert all(line.startswith("168\t") for line in lines)

    def test_tensor(self, tmp_path):
        _, a = invoke(["ci-betti", "--degrees", "1,2"])
        _, b = invoke(["ci-betti", "--degrees", "4,8"])
        pa, pb = tmp_path / "a.betti", tmp_path / "b.betti"
        pa.write_text(a)
        pb.write_text(b)
        _, product = invoke(["tensor", "--in", str(pa), "--in", str(pb)])
        _, direct = invoke(["ci-betti", "--degrees", "1,2,4,8"])
        assert product == direct

    def test_tensor_cap(self, tmp_path, capsys):
        # The Koszul diagram of 1,2,4,...,512 has 1,024 cells: 1,048,576 pairs.
        _, text = invoke(["ci-betti", "--degrees", ",".join(str(2**k) for k in range(10))])
        path = tmp_path / "k10.betti"
        path.write_text(text)
        start = perf_counter()
        code = main(["tensor", "--in", str(path), "--in", str(path)])
        assert perf_counter() - start < 5
        assert code == 1
        assert capsys.readouterr() == ("", "SizeExceeded: 1048576 cell pairs exceed the cap of 1000000\n")

    def test_quotient_from_degrees(self):
        code, text = invoke(["quotient", "--degrees", "2,3,4", "--element", "7"])
        assert code == 0
        assert "294\t(0,7,9,12,16)" in text

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["quotient", "--degrees", "2,3,4", "--element", "7"], "quotient_2_3_4_by_7.txt"),
            (
                ["shuffle", "--seq", "0,1,3", "--seq", "0,2,3", "--seq", "1,2,5"],
                "shuffle_013_023_125.txt",
            ),
            (["ci-shuffle", "--degrees", "1,1,2,2,3"], "ci_shuffle_1_1_2_2_3.txt"),
            (["ci-shuffle", "--degrees", "2,3,4,7"], "ci_shuffle_2_3_4_7.txt"),
        ],
    )
    def test_ordered_golden(self, argv, golden):
        assert invoke(argv) == (0, (GOLDEN / golden).read_text())

    def test_ci_shuffle_cap_flag(self, capsys):
        code = main(["ci-shuffle", "--degrees", "1,2,3,4,5,6,7,8,9,10"])
        assert code == 1
        assert capsys.readouterr() == ("", "SizeExceeded: 3628800 shuffles exceed the cap of 1000000\n")

    def test_shuffle_long_sequence(self, capsys):
        seq = ",".join(str(k) for k in range(1201))
        assert main(["shuffle", "--seq", seq]) == 0
        captured = capsys.readouterr()
        assert captured.out == f"1\t({seq})\n"
        assert captured.err == ""

    def test_quotient_from_file(self, tmp_path):
        _, terms = invoke(["decompose", "--degrees", "2,3,4"])
        path = tmp_path / "dec.txt"
        path.write_text(terms)
        _, from_file = invoke(["quotient", "--in", str(path), "--element", "7"])
        _, direct = invoke(["quotient", "--degrees", "2,3,4", "--element", "7"])
        assert from_file == direct

    def test_census_text(self):
        code, text = invoke(["census", "--codim", "4", "--max-degree", "6", "--strict"])
        assert code == 0
        assert "tuples swept: 15" in text

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["census", "--codim", "4", "--max-degree", "10", "--strict"], "census_4_10_strict.txt"),
            (
                ["census", "--codim", "5", "--max-degree", "9", "--strict", "--format", "tsv"],
                "census_5_9_strict.tsv",
            ),
        ],
    )
    def test_census_golden(self, argv, golden, capsys):
        assert main(argv) == 0
        assert capsys.readouterr() == ((GOLDEN / golden).read_text(), "")

    def test_census_tsv(self):
        code, text = invoke(
            ["census", "--codim", "4", "--max-degree", "5", "--strict", "--format", "tsv"]
        )
        assert code == 0
        assert len(text.splitlines()) == 5

    @pytest.mark.parametrize("fmt", ["text", "tsv"])
    def test_census_tuple_cap(self, fmt, capsys):
        # C(82, 4) = 1,749,060 tuples: refused before the first is swept.
        start = perf_counter()
        code = main(["census", "--codim", "4", "--max-degree", "82", "--strict", "--format", fmt])
        assert perf_counter() - start < 5
        assert code == 1
        assert capsys.readouterr() == ("", "SizeExceeded: 1749060 tuples exceed the cap of 100000\n")

    def test_verify_paper_is_gone(self, capsys):
        # The paper checks are tests now (test_reference.py).
        with pytest.raises(SystemExit) as exc:
            main(["verify-paper"])
        assert exc.value.code == 2
        assert "invalid choice: 'verify-paper'" in capsys.readouterr().err


def test_cli_import_is_lean():
    # A CLI start compiles every module it imports; none of these serves a command.
    script = (
        "import sys; before = set(sys.modules); import bsdecomp.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    loaded = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "bsdecomp.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded), loaded
    assert not any(name.startswith("bsdecomp.reference") for name in loaded)


def test_readme_lists_only_parser_flags():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    flags = set(re.findall(r"--[a-z][a-z-]*", readme[readme.index("## CLI"):]))
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    known = {s for p in sub.choices.values() for a in p._actions for s in a.option_strings}
    assert flags and flags <= known, sorted(flags - known)


class TestErrors:
    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["decompose"])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.betti"
        path.write_text("BETTI 1\n0\t0\t2/4\n")
        code = main(["decompose", "--in", str(path)])
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, betti, terms",
        [
            (["ci-betti", "--degrees", "2,x"], None, None),
            (["decompose", "--degrees", ","], None, None),
            (["shuffle", "--seq", "0,x", "--seq", "0,1"], None, None),
            (["census", "--codim", "5", "--max-degree", "3", "--strict"], None, None),
            (["census", "--codim", "4", "--max-degree", "3", "--strict", "--format", "tsv"], None, None),
            (["census", "--codim", "4", "--max-degree", "0"], None, None),
            (["quotient", "--degrees", "2,3", "--element", "0"], None, None),
            (["quotient", "--element", "2"], None, "1\t(0,1,2)\n1/x\t(0,1,2)\n"),
            (["quotient", "--element", "2"], None, "1/0\t(0,1,2)\n"),
            (["quotient", "--element", "2"], None, "1\t(0,2,1)\n"),
            (["census", "--codim", "4", "--max-degree", "0", "--format", "tsv"], None, None),
            (["decompose"], "BETTI 1\n0\t0\t2/4\n", None),
            (["ci-betti", "--degrees", ",".join(str(2**k) for k in range(40))], None, None),
            (["quotient", "--element", "2"], None, "1e100000000\t(0,1)\n"),
            (["quotient", "--element", "2"], None, "0.5\t(0,1)\n"),
            (["quotient", "--element", "2"], None, "2/4\t(0,1)\n"),
            (["decompose"], "BETTI 1\n0\t0\t1_0\n", None),
            (["decompose"], "BETTI 1\n0\t0\t +3/ 2\n", None),
            (["decompose"], "BETTI 1\n0\t0\t\u0663\n", None),
            (["decompose"], "BETTI 1\n0_0\t0\t1\n", None),
            (["quotient", "--element", "2"], None, "1_0\t(0,1)\n"),
            (["quotient", "--element", "2"], None, " +3/ 2\t(0,1)\n"),
            (["quotient", "--element", "2"], None, "\u0663\t(0,1)\n"),
        ],
    )
    def test_bad_input_is_one_error_line(self, argv, betti, terms, tmp_path, capsys):
        for name, text in (("d.betti", betti), ("terms.txt", terms)):
            if text is not None:
                path = tmp_path / name
                path.write_text(text)
                argv = argv + ["--in", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert re.match(r"^\w+: ", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ci-betti", "--degrees=--"],
            ["decompose", "--degrees=--"],
            ["decompose", "--in=--"],
            ["elim-table", "--degrees=--"],
            ["elim-table", "--in=--"],
            ["closed-form", "--degrees=--"],
            ["predict-first-elim", "--degrees=--"],
            ["shuffle", "--seq=--"],
            ["shuffle", "--seq=0,1", "--seq=--"],
            ["ci-shuffle", "--degrees=--"],
            ["tensor", "--in=--"],
            ["quotient", "--degrees=--", "--element=2"],
            ["quotient", "--in=--", "--element=2"],
            ["quotient", "--degrees=2,3", "--element=--"],
            ["census", "--codim=--", "--max-degree=4"],
            ["census", "--codim=4", "--max-degree=--"],
            ["census", "--codim=4", "--max-degree=4", "--format=--"],
        ],
    )
    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse reads '--' as the value")
    def test_lone_dashes_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("bsdecomp: error: ")

    def test_terms_file_error_names_line(self, tmp_path, capsys):
        path = tmp_path / "terms.txt"
        path.write_text("1\t(0,1,2)\n\n1/x\t(0,1,2)\n")
        assert main(["quotient", "--in", str(path), "--element", "2"]) == 1
        assert capsys.readouterr().err.startswith("ValueError: line 3: ")

    def test_missing_file(self, capsys):
        code = main(["decompose", "--in", "/nonexistent.betti"])
        assert code == 1


# -- fuzzing the CLI contract -------------------------------------------

JUNK = st.text(alphabet="0123456789,-/x ()", max_size=6)


def mostly(valid, malformed=JUNK):
    """Three draws in four from `valid`, the rest from `malformed`."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else malformed)


def joined(xs):
    return ",".join(map(str, xs))


def betti_text(cells):
    return "BETTI 1\n" + "".join(f"{i}\t{j}\t{v}\n" for (i, j), v in sorted(cells.items()))


DEGREES = mostly(st.lists(st.integers(1, 9), max_size=5).map(joined))
SEQ = mostly(st.sets(st.integers(-3, 9), min_size=1, max_size=3).map(sorted).map(joined))
INT = mostly(st.integers(-2, 9).map(str))
# Tokens that `int()` reads but the value grammar refuses.
LOOSE = ["1_0", " +3/ 2", "\u0663"]
VALUE = mostly(st.sampled_from(["1", "2", "1/2", "3", "-1"]), st.sampled_from(["0", "2/4", "x", *LOOSE]))
CELL = st.tuples(st.integers(0, 3), st.integers(-2, 9))
BETTI = mostly(st.dictionaries(CELL, VALUE, max_size=6).map(betti_text), JUNK | st.just("BETTI 1\n0_0\t0\t1\n"))
TERMS = st.lists(
    st.tuples(st.sampled_from(["1", "-2", "1/3", "0", "1/0", "x", "", "0.5", "1e9", *LOOSE]), SEQ),
    min_size=1,
    max_size=4,
).map(lambda terms: "".join(f"{c}\t({q})\n" for c, q in terms))
COMMANDS = (
    "ci-betti", "decompose", "elim-table", "closed-form", "predict-first-elim",
    "shuffle", "ci-shuffle", "tensor", "quotient", "census",
)


@st.composite
def cli_calls(draw, command):
    """(argv, {file name: contents}) for a subcommand, some malformed.

    Values are passed as `--flag=value` so that one starting with `-` is
    read as a value; `@name` stands for the file's path.  One call in ten
    drops a token, a usage error.
    """
    files = {}

    def infile(contents):
        name = f"f{len(files)}"
        files[name] = draw(contents)
        return [f"--in=@{name}"]

    def option(flag, values):
        return [f"{flag}={draw(values)}"] if draw(st.booleans()) else []

    def source(contents):
        return [f"--degrees={draw(DEGREES)}"] if draw(st.booleans()) else infile(contents)

    argv = [command]
    if command in ("ci-betti", "closed-form", "predict-first-elim"):
        argv += [f"--degrees={draw(DEGREES)}"]
    elif command in ("decompose", "elim-table"):
        argv += source(BETTI)
    elif command == "shuffle":
        argv += [f"--seq={seq}" for seq in draw(st.lists(SEQ, min_size=1, max_size=3))]
    elif command == "ci-shuffle":
        argv += [f"--degrees={draw(DEGREES)}"]
    elif command == "tensor":
        for _ in range(draw(st.integers(1, 3))):
            argv += infile(BETTI)
    elif command == "quotient":
        argv += source(TERMS) + [f"--element={draw(INT)}"]
    elif command == "census":
        argv += [f"--codim={draw(mostly(st.sampled_from(['4', '5'])))}"]
        bound = mostly(
            st.integers(-1, 6).map(str),
            st.sampled_from(["", "x", "1.5", "6x", "82 ", " 90"]) | st.integers(82, 10**30).map(str),
        )
        argv += [f"--max-degree={draw(bound)}"]
        argv += option("--format", mostly(st.sampled_from(["text", "tsv"])))
        argv += ["--strict"] if draw(st.booleans()) else []
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv, files


class TestContractFuzz:
    @pytest.mark.parametrize("command", COMMANDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_exit_codes_and_one_error_line(self, command, data):
        argv, files = data.draw(cli_calls(command))
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                Path(tmp, name).write_text(text)
            argv = [a.replace("=@", f"={tmp}/") for a in argv]
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
        if code == 1:
            assert len(err.splitlines()) == 1, err
            assert re.match(r"^\w+: ", err), err
