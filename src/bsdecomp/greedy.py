"""Greedy totally-ordered decomposition into pure diagrams.

Repeatedly subtract the largest multiple of the pure diagram on the
residual's minimal degree sequence that keeps all entries nonnegative.
The degree sequences produced form a strictly increasing chain and the
decomposition is unique.  The elimination table records, per entry of
the input, the iteration at which it first became zero.
"""

from dataclasses import dataclass

from .diagram import Diagram, render_grid
from .errors import EmptyColumn, NotADegreeSequence, NotInCone
from .pure import PureSum, min_degree_sequence, pure

__all__ = [
    "EliminationTable",
    "GreedyTrace",
    "greedy_decompose",
    "verify_symmetric",
]


@dataclass(frozen=True)
class EliminationTable:
    """Map (i, j) -> first iteration at which the entry became zero."""

    cells: dict
    iterations: int

    def grid(self):
        return render_grid({key: str(it) for key, it in self.cells.items()})


@dataclass(frozen=True)
class GreedyTrace:
    decomposition: PureSum
    table: EliminationTable


def greedy_decompose(a):
    """Run the greedy chain decomposition, returning terms and the table."""
    if not a:
        raise NotInCone("cannot decompose the zero diagram")
    if any(v < 0 for _, v in a.items()):
        raise NotInCone("diagram has negative entries")
    width = a.width
    residual = dict(a.items())
    top = sum(i == width for i, _ in residual)  # cells left in column `width`
    terms = []
    cells = {}
    iteration = 0

    def stuck(message):
        return NotInCone(message, partial=PureSum(tuple(terms)), residual=Diagram._of(residual))

    # Each step clears the cell attaining q, so there are at most len(a) steps.
    while residual:
        iteration += 1
        if not top:
            raise stuck(f"column {width} emptied while lower columns remain")
        try:
            d = min_degree_sequence(residual)
        except EmptyColumn as exc:
            raise stuck(str(exc)) from exc
        except NotADegreeSequence as exc:
            raise stuck(f"column minima are not strictly increasing: {exc}") from exc
        p = pure(d)
        q = min(residual[key] / p[key] for key in enumerate(d))
        terms.append((q, d))
        for key in enumerate(d):  # the cells (i, d_i) of pure(d)
            value = residual[key] - q * p[key]
            if value:
                residual[key] = value
            else:
                del residual[key]
                cells[key] = iteration
                top -= key[0] == width
    return GreedyTrace(
        decomposition=PureSum(tuple(terms)),
        table=EliminationTable(cells=cells, iterations=iteration),
    )


def verify_symmetric(trace, r, n):
    """Check the palindromic symmetry of a chain decomposition.

    For a self-dual (Gorenstein) diagram of width n and regularity r the
    terms read the same from both ends: the k-th term from the end has
    the coefficient of the k-th term and its degree sequence mirrored in
    the top degree r + n, (r + n - d_n, ..., r + n - d_0).  Every d_k
    must have n + 1 entries.  Returns False on any asymmetry.
    """
    terms = trace.decomposition.terms
    shift = r + n
    m = len(terms)
    for k in range((m + 1) // 2):
        a_k, d_k = terms[k]
        a_mirror, d_mirror = terms[m - 1 - k]
        if len(d_k) != n + 1 or a_k != a_mirror:
            return False
        if d_mirror != tuple(shift - x for x in reversed(d_k)):
            return False
    return True
