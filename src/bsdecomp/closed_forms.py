"""Closed-form chain decompositions for codimension at most 3, and the
columns the first greedy step clears on a strict Koszul diagram.

Above codimension 3 no formula for the whole decomposition exists, but
the first greedy step has one for every strictly increasing type: it
clears the columns where the pure diagram on the partial sums of the
degrees is largest.
"""

from itertools import accumulate

from .errors import RequiresStrictDegrees, UnsupportedCodimension
from .koszul import normalize
from .pure import PureSum, pure

__all__ = [
    "closed_form_decomposition",
    "first_elimination",
]


def closed_form_decomposition(t):
    """Chain decomposition of a complete intersection of codimension 1..3."""
    t = normalize(t)
    e = t.degrees
    n = t.codim
    if n == 1:
        (e1,) = e
        raw = [(e1, (0, e1))]
    elif n == 2:
        e1, e2 = e
        s = e1 + e2
        raw = [
            (e1 * e2, (0, e1, s)),
            (e1 * e2, (0, e2, s)),
        ]
    elif n == 3:
        e1, e2, e3 = e
        s = e1 + e2 + e3
        raw = [
            (e1 * e2 * (e2 + e3), (0, e1, e1 + e2, s)),
            (e1 * e2 * (e3 - e1), (0, e2, e1 + e2, s)),
            (2 * e1 * e2 * (e1 + e3 - e2), (0, e2, e1 + e3, s)),
            (e1 * e2 * (e3 - e1), (0, e3, e1 + e3, s)),
            (e1 * e2 * (e2 + e3), (0, e3, e2 + e3, s)),
        ]
    else:
        raise UnsupportedCodimension(f"no closed form for codimension {n}")
    return PureSum.merged(raw)


def first_elimination(t):
    """Columns the first greedy subtraction clears, for strict degrees.

    With e_1 < ... < e_n the column minima of the Koszul diagram are the
    partial sums s = (0, e_1, e_1 + e_2, ...), each with Betti number 1,
    so the first coefficient is min_i 1/pure(s)_i and the columns cleared
    are those where pure(s) is largest.  In codimension 4, a < b < c < d,
    that is (1,) when a(b+2c+d) < c(c+d), (2,) when the inequality is
    reversed, and (1, 2) on equality.
    """
    t = normalize(t)
    if any(a == b for a, b in zip(t.degrees, t.degrees[1:])):
        raise RequiresStrictDegrees(f"degrees must be strictly increasing: {t.degrees}")
    cells = pure(accumulate(t.degrees, initial=0)).items()
    top = max(v for _, v in cells)
    return tuple(i for (i, _), v in cells if v == top)
