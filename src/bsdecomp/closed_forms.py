"""Closed-form chain decompositions for codimension at most 3, and the
codimension-4 first-elimination predicate.

Above codimension 3 no single formula exists; the predicate below only
tells whether the greedy algorithm's first subtraction clears a column-1
or column-2 entry (or several entries at once).
"""

import enum

from .errors import RequiresStrictDegrees, UnsupportedCodimension
from .koszul import normalize
from .pure import PureSum

__all__ = [
    "FirstElimination",
    "closed_form_decomposition",
    "codim4_first_elimination",
]


class FirstElimination(enum.Enum):
    COLUMN1 = "Column1"
    COLUMN2 = "Column2"
    MULTIPLE = "Multiple"

    def __str__(self):
        return self.value


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


def codim4_first_elimination(t):
    """Which column the first greedy subtraction clears, for codim 4.

    For strictly increasing degrees a < b < c < d the first elimination
    is in column 1 when a(b+2c+d) < c(c+d), in column 2 when the
    inequality is reversed, and hits both at once on equality.  The
    direction is pinned by the elimination-table oracle in the tests.
    """
    t = normalize(t)
    if t.codim != 4:
        raise UnsupportedCodimension(f"predicate needs 4 degrees, got {t.codim}")
    a, b, c, d = t.degrees
    if not (a < b < c < d):
        raise RequiresStrictDegrees(f"degrees must be strictly increasing: {t.degrees}")
    lhs = a * (b + 2 * c + d)
    rhs = c * (c + d)
    if lhs < rhs:
        return FirstElimination.COLUMN1
    if lhs > rhs:
        return FirstElimination.COLUMN2
    return FirstElimination.MULTIPLE

