"""Batch exploration of greedy elimination order across complete
intersections of a fixed codimension.

The elimination signature of a degree tuple records which columns are
cleared at each iteration (dropping the trivial outer columns 0 and n on
the final, all-clearing iteration).  The census sweeps all bounded
degree tuples, groups them by signature, and, for strict codimension-4
tuples, tallies how often `first_elimination` names the columns of the
first iteration.
"""

from itertools import combinations, combinations_with_replacement
from math import comb

from .closed_forms import first_elimination
from .diagram import Record
from .errors import SizeExceeded
from .greedy import greedy_decompose
from .koszul import CIType, koszul_betti, normalize
from .pure import format_sequence

__all__ = [
    "CENSUS_CAP",
    "EliminationSignature",
    "CensusReport",
    "signature_of",
    "iter_types",
    "census_records",
    "run_census",
    "tsv_line",
    "format_report",
]


class EliminationSignature(Record):
    """Per-iteration column tuples ((columns, ...), ...): step k is iteration k + 1."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        object.__setattr__(self, "steps", steps)

    @property
    def iterations(self):
        return len(self.steps)

    def has_multiple_elimination(self):
        """True if some non-final iteration clears more than one column."""
        return any(len(cols) > 1 for cols in self.steps[:-1])

    def first_columns(self):
        return self.steps[0] if self.steps else ()

    def format(self):
        return ";".join(
            f"{it}:{','.join(str(c) for c in cols)}" for it, cols in enumerate(self.steps, 1)
        )


def signature_of(t):
    """Elimination signature of the Koszul diagram of type t, read off its
    chain: step k clears the columns where d_k and d_{k+1} differ, and the
    last step clears them all, of which 1..codim-1 are kept."""
    t = normalize(t)
    seqs = [d for _, d in greedy_decompose(koszul_betti(t))]
    steps = [tuple(i for i, (a, b) in enumerate(zip(d, after)) if a != b)
             for d, after in zip(seqs, seqs[1:])]
    steps.append(tuple(range(1, t.codim)))
    return EliminationSignature(steps=tuple(steps))


def iter_types(codim, max_degree, strict):
    """All increasing degree tuples of the given codimension, bounded."""
    source = combinations if strict else combinations_with_replacement
    for degrees in source(range(1, max_degree + 1), codim):
        yield CIType(degrees)


class CensusReport(Record):
    """The tallies of a census sweep; `run_census` fills them in."""

    __slots__ = ("codim", "max_degree", "strict", "swept", "signatures", "signature_totals",
                 "no_multiple_signatures", "multiple_tuples", "predicate_checked", "predicate_agreed")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, codim, max_degree, strict, swept=0, signatures=None, signature_totals=None,
                 no_multiple_signatures=0, multiple_tuples=0, predicate_checked=0,
                 predicate_agreed=0):
        self.codim, self.max_degree, self.strict, self.swept = codim, max_degree, strict, swept
        self.signatures = {} if signatures is None else signatures  # signature -> witness tuples
        self.signature_totals = {} if signature_totals is None else signature_totals  # -> count
        self.no_multiple_signatures, self.multiple_tuples = no_multiple_signatures, multiple_tuples
        self.predicate_checked, self.predicate_agreed = predicate_checked, predicate_agreed


WITNESS_CAP = 5
CENSUS_CAP = 10**5


def census_records(codim, max_degree, strict):
    """An iterator of (type, signature) for every bounded degree tuple.

    The bounds and the tuple count are checked at the call; the records
    are then made one at a time.
    """
    if codim not in (4, 5):
        raise ValueError(f"census supports codimension 4 or 5, got {codim}")
    if strict and max_degree < codim:
        raise ValueError("strict tuples need max_degree >= codim")
    if max_degree < 1:
        raise ValueError("tuples need max_degree >= 1")
    count = comb(max_degree, codim) if strict else comb(max_degree + codim - 1, codim)
    if count > CENSUS_CAP:
        raise SizeExceeded(f"{count} tuples exceed the cap of {CENSUS_CAP}")
    return ((t, signature_of(t)) for t in iter_types(codim, max_degree, strict))


def run_census(codim, max_degree, strict):
    """Sweep all bounded degree tuples and aggregate their signatures."""
    report = CensusReport(codim=codim, max_degree=max_degree, strict=strict)
    for t, sig in census_records(codim, max_degree, strict):
        report.swept += 1
        witnesses = report.signatures.setdefault(sig, [])
        if len(witnesses) < WITNESS_CAP:
            witnesses.append(t.degrees)
        report.signature_totals[sig] = report.signature_totals.get(sig, 0) + 1
        if sig.has_multiple_elimination():
            report.multiple_tuples += 1
        if codim == 4 and strict:
            report.predicate_checked += 1
            report.predicate_agreed += first_elimination(t) == sig.first_columns()
    report.no_multiple_signatures = sum(
        1 for sig in report.signatures if not sig.has_multiple_elimination()
    )
    return report


def tsv_line(t, sig):
    """One machine-readable line for a swept tuple and its signature."""
    return "\t".join(
        [
            ",".join(str(e) for e in t.degrees),
            str(sig.iterations),
            sig.format(),
            "yes" if sig.has_multiple_elimination() else "no",
        ]
    )


def format_report(report):
    lines = [
        f"census: codim {report.codim}, degrees <= {report.max_degree}, "
        f"{'strictly' if report.strict else 'weakly'} increasing",
        f"tuples swept: {report.swept}",
        f"distinct signatures: {len(report.signatures)}",
        f"signatures without multiple elimination: {report.no_multiple_signatures}",
        f"tuples with multiple elimination: {report.multiple_tuples}",
    ]
    if report.predicate_checked:
        lines.append(
            "first-elimination predicate agreement: "
            f"{report.predicate_agreed}/{report.predicate_checked}"
        )
    lines.append("")
    ordered = sorted(
        report.signatures.items(), key=lambda kv: min(kv[1])
    )
    for sig, witnesses in ordered:
        shown = " ".join(format_sequence(w) for w in witnesses)
        total = report.signature_totals[sig]
        flag = " [multiple]" if sig.has_multiple_elimination() else ""
        lines.append(f"{sig.format()}{flag}")
        lines.append(f"  tuples: {total}, e.g. {shown}")
    return "\n".join(lines)
