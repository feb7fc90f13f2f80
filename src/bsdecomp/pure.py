"""Degree sequences and normalized pure diagrams.

A degree sequence is a strictly increasing integer tuple (d_0, ..., d_n).
The pure diagram on d has one entry per column, at (i, d_i), with value
prod_{k != i} 1/|d_i - d_k|.  A formal sum of pure diagrams is a
PureSum.
"""

from fractions import Fraction
from math import prod
from operator import index

from .diagram import Diagram, Record, _as_fraction
from .errors import EmptyColumn, LengthMismatch, NotADegreeSequence

__all__ = [
    "PureSum",
    "check_degree_sequence",
    "pure",
    "min_degree_sequence",
    "format_sequence",
    "parse_sequence",
]


def check_degree_sequence(d):
    """Validate and normalize to a tuple of ints; must be strictly increasing."""
    return _increasing(tuple(map(index, d)))


def _increasing(d):
    """A nonempty, strictly increasing tuple of ints, returned as is."""
    if not d:
        raise NotADegreeSequence("a degree sequence must be nonempty")
    for a, b in zip(d, d[1:]):
        if a >= b:
            raise NotADegreeSequence(f"{d} is not strictly increasing")
    return d


def _denominators(d):
    """The integers D_i = prod_{k != i} |d_i - d_k| of a strictly increasing d.

    pure(d) is 1/D_i at (i, d_i).
    """
    return [prod([abs(di - dk) for dk in d if dk != di]) for di in d]


def pure(d):
    """The normalized pure diagram on degree sequence d."""
    d = check_degree_sequence(d)
    return Diagram._of({
        (i, di): Fraction(1, Di) for i, (di, Di) in enumerate(zip(d, _denominators(d)))
    })


class PureSum(Record):
    """Terms (coefficient, degree sequence) of a formal sum of pure diagrams.

    The degree sequences need not be totally ordered; those of a greedy
    chain decomposition happen to be.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        object.__setattr__(self, "terms", terms)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    @classmethod
    def merged(cls, pairs):
        """Sum equal sequences' coefficients in first-seen order, then make one
        Fraction per sequence (floats are refused); drop zero totals."""
        acc = {}
        for coeff, d in pairs:
            acc[d] = acc.get(d, 0) + coeff
        return cls(tuple((q, d) for d, c in acc.items() if (q := _as_fraction(c)) != 0))

    def expand(self):
        """Sum of coeff * pure(d) over the terms."""
        lengths = {len(d) for _, d in self.terms}
        if len(lengths) > 1:
            raise LengthMismatch(f"mixed sequence lengths {sorted(lengths)}")
        return Diagram(
            (cell, coeff * value) for coeff, d in self.terms for cell, value in pure(d).items()
        )


def min_degree_sequence(a):
    """Per-column minimum degrees of a diagram or a dict of its cells."""
    if not a:
        raise EmptyColumn("empty diagram")
    minima = {}
    for i, j in a:
        if i not in minima or j < minima[i]:
            minima[i] = j
    columns = range(max(minima) + 1)
    for i in columns:
        if i not in minima:
            raise EmptyColumn(f"column {i} has no entries")
    return _increasing(tuple(minima[i] for i in columns))


def format_sequence(d):
    return "(" + ",".join(str(x) for x in d) + ")"


def parse_sequence(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return check_degree_sequence(int(p) for p in text.split(","))
