"""Command-line interface.

One subcommand per library operation; diagrams travel between commands
in the BETTI/1 text format, decompositions as `coeff<TAB>(d_0,...,d_n)`
lines.  Domain errors and malformed numbers exit 1 with the error name on
stderr; usage errors exit 2.
"""

import argparse
import functools
import sys

from . import census as census_mod
from .closed_forms import closed_form_decomposition, first_elimination
from .diagram import format_betti, format_fraction, parse_betti, parse_fraction
from .errors import BsdecompError, NotADegreeSequence
from .greedy import EliminationTable, greedy_decompose
from .koszul import normalize, koszul_betti
from .pure import format_sequence, parse_sequence
from .shuffle import (
    ci_shuffle_decomposition,
    quotient_by_regular_element,
    shuffle_product,
    tensor,
)


def _parse_degrees(text):
    return normalize(int(p) for p in text.split(","))


def _print_terms(terms, out):
    for coeff, d in terms:
        out.write(f"{format_fraction(coeff)}\t{format_sequence(d)}\n")


def _read_terms(path):
    terms = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            coeff_text, _, seq_text = line.partition("\t")
            try:
                terms.append((parse_fraction(coeff_text), parse_sequence(seq_text)))
            except NotADegreeSequence as exc:
                raise NotADegreeSequence(f"line {lineno}: {exc}") from None
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return terms


def _load_diagram(path):
    with open(path) as handle:
        return parse_betti(handle.read())


def _input_diagram(args):
    if args.degrees is not None:
        return koszul_betti(_parse_degrees(args.degrees))
    return _load_diagram(args.infile)


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="bsdecomp",
        description="Exact decompositions of Betti diagrams into pure diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_diagram_source(p, require=True):
        group = p.add_mutually_exclusive_group(required=require)
        group.add_argument("--degrees", help="complete-intersection degrees, e.g. 1,2,4,8")
        group.add_argument("--in", dest="infile", help="BETTI/1 file")

    p = sub.add_parser("ci-betti", help="Betti diagram of a complete intersection")
    p.add_argument("--degrees", required=True)

    p = sub.add_parser("decompose", help="greedy chain decomposition")
    add_diagram_source(p)

    p = sub.add_parser("elim-table", help="elimination table of the greedy decomposition")
    add_diagram_source(p)

    p = sub.add_parser("closed-form", help="closed-form decomposition, codim 1..3")
    p.add_argument("--degrees", required=True)

    p = sub.add_parser("predict-first-elim", help="column the first greedy step clears, strict degrees")
    p.add_argument("--degrees", required=True)

    p = sub.add_parser("shuffle", help="expand a product of pure diagrams")
    p.add_argument("--seq", action="append", required=True, help="degree sequence, e.g. 0,3,5 (repeatable)")

    p = sub.add_parser("ci-shuffle", help="order-free decomposition of a complete intersection")
    p.add_argument("--degrees", required=True)

    p = sub.add_parser("tensor", help="tensor product of diagrams")
    p.add_argument("--in", dest="infiles", action="append", required=True, help="BETTI/1 file (repeatable)")

    p = sub.add_parser("quotient", help="decomposition after quotienting by a regular element")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--degrees", help="decompose this complete intersection first")
    group.add_argument("--in", dest="infile", help="file of coeff<TAB>(sequence) lines")
    p.add_argument("--element", type=int, required=True, help="degree of the regular element")

    p = sub.add_parser("census", help="sweep elimination signatures")
    p.add_argument("--codim", type=int, required=True, choices=(4, 5))
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--format", choices=("text", "tsv"), default="text")

    return parser


def run(args, out):
    cmd = args.command
    if cmd == "ci-betti":
        out.write(format_betti(koszul_betti(_parse_degrees(args.degrees))))
    elif cmd == "decompose":
        _print_terms(greedy_decompose(_input_diagram(args)), out)
    elif cmd == "elim-table":
        out.write(EliminationTable.of(greedy_decompose(_input_diagram(args))).grid() + "\n")
    elif cmd == "closed-form":
        _print_terms(closed_form_decomposition(_parse_degrees(args.degrees)), out)
    elif cmd == "predict-first-elim":
        cols = first_elimination(_parse_degrees(args.degrees))
        out.write(f"Column{cols[0]}\n" if len(cols) == 1 else "Multiple\n")
    elif cmd == "shuffle":
        seqs = [parse_sequence(s) for s in args.seq]
        _print_terms(shuffle_product(seqs), out)
    elif cmd == "ci-shuffle":
        _print_terms(ci_shuffle_decomposition(_parse_degrees(args.degrees)), out)
    elif cmd == "tensor":
        diagrams = [_load_diagram(path) for path in args.infiles]
        result = diagrams[0]
        for d in diagrams[1:]:
            result = tensor(result, d)
        out.write(format_betti(result))
    elif cmd == "quotient":
        if args.degrees is not None:
            base = greedy_decompose(koszul_betti(_parse_degrees(args.degrees)))
        else:
            base = _read_terms(args.infile)
        _print_terms(quotient_by_regular_element(base, args.element), out)
    elif cmd == "census":
        if args.format == "tsv":
            for t, sig in census_mod.census_records(args.codim, args.max_degree, args.strict):
                out.write(census_mod.tsv_line(t, sig) + "\n")
        else:
            report = census_mod.run_census(args.codim, args.max_degree, args.strict)
            out.write(census_mod.format_report(report) + "\n")
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(cmd)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # Python 3.12 and older read the value of `--opt=--` as [], also inside an append list.
    for dest, value in vars(args).items():
        if value == [] or isinstance(value, list) and [] in value:
            parser.error(f"argument {dest}: '--' is not a value")
    try:
        return run(args, sys.stdout)
    except (BsdecompError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
