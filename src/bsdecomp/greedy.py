"""Greedy totally-ordered decomposition into pure diagrams.

Repeatedly subtract the largest multiple of the pure diagram on the
residual's minimal degree sequence that keeps all entries nonnegative.
The degree sequences produced form a strictly increasing chain and the
decomposition is unique.  The elimination table, per entry of the
input the iteration at which it became zero, is read off the terms.

The residual is kept as integer numerators R over one common
denominator M.  A step on degree sequence d needs only the integers
D_i = prod_{k != i} |d_i - d_k|, since pure(d) is 1/D_i at (i, d_i):
the coefficient is m / M with m = min_i R_i D_i, and R_i drops by
m / D_i.  When some D_i does not divide m, R and M are first scaled by
the least L that makes every m / D_i integral, and the common factor of
M and R is divided out after the step.  Each term builds one Fraction;
no cell does.
"""

from fractions import Fraction
from math import gcd, lcm

from .diagram import Diagram, Record, render_grid
from .errors import EmptyColumn, NotADegreeSequence, NotInCone
from .pure import PureSum, _denominators, min_degree_sequence

__all__ = ["EliminationTable", "greedy_decompose"]


class EliminationTable(Record):
    """Map (i, j) -> iteration at which the entry became zero."""

    __slots__ = ("cells", "iterations")

    def __init__(self, cells, iterations):
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "iterations", iterations)

    @classmethod
    def of(cls, decomposition):
        """The table of a chain decomposition: column minima only move up,
        and a cell stays its column's minimum until it reaches zero, so step
        k clears (i, d_k[i]) exactly when d_{k+1}[i] != d_k[i], and the last
        step clears every cell it touches.
        """
        seqs = [d for _, d in decomposition.terms]
        cells = {(i, j): k for k, (d, after) in enumerate(zip(seqs, seqs[1:] + [None]), start=1)
                 for i, j in enumerate(d) if not after or after[i] != j}
        return cls(cells, len(seqs))

    def grid(self):
        return render_grid({key: str(it) for key, it in self.cells.items()})


def greedy_decompose(a):
    """Run the greedy chain decomposition, returning its chain as a PureSum."""
    if not a:
        raise NotInCone("cannot decompose the zero diagram")
    items = a.items()
    if any(v < 0 for _, v in items):
        raise NotInCone("diagram has negative entries")
    width = a.width
    M = lcm(*(v.denominator for _, v in items))
    R = {key: v.numerator * (M // v.denominator) for key, v in items}
    top = sum(i == width for i, _ in R)  # cells left in column `width`
    terms = []

    def stuck(message):
        residual = Diagram._of({key: Fraction(v, M) for key, v in R.items()})
        return NotInCone(message, partial=PureSum(tuple(terms)), residual=residual)

    # Each step clears the cell attaining q, so there are at most len(a) steps.
    while R:
        if not top:
            raise stuck(f"column {width} emptied while lower columns remain")
        try:
            d = min_degree_sequence(R)
        except EmptyColumn as exc:
            raise stuck(str(exc)) from exc
        except NotADegreeSequence as exc:
            raise stuck(f"column minima are not strictly increasing: {exc}") from exc
        keys = tuple(enumerate(d))
        D = _denominators(d)
        m = min([R[key] * Di for key, Di in zip(keys, D)])
        L = lcm(*[Di // gcd(Di, m) for Di in D])
        if L > 1:  # make every m / D_i an integer
            M *= L
            m *= L
            for key in R:
                R[key] *= L
        terms.append((Fraction(m, M), d))
        for key, Di in zip(keys, D):
            value = R[key] - m // Di
            if value:
                R[key] = value
            else:
                del R[key]
                top -= key[0] == width
        if L > 1:
            g = gcd(M, *R.values())
            if g > 1:
                M //= g
                for key in R:
                    R[key] //= g
    return PureSum(tuple(terms))
