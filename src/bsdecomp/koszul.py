"""Betti diagrams of complete intersections.

The minimal resolution of a complete intersection cut out by forms of
degrees (e_1, ..., e_n) is the Koszul complex, so its Betti diagram is
determined by subset sums: entry (i, j) counts the i-element subsets of
the degrees summing to j.
"""

from fractions import Fraction
from operator import index

from .diagram import Diagram, Record
from .errors import NonPositiveDegree, NotWeaklyIncreasing, SizeExceeded

__all__ = ["CIType", "normalize", "koszul_betti"]

KOSZUL_CELL_CAP = 10**5


class CIType(Record):
    """Type of a complete intersection: weakly increasing generator degrees."""

    __slots__ = ("degrees",)

    def __init__(self, degrees):
        degrees = tuple(map(index, degrees))
        if any(e < 1 for e in degrees):
            raise NonPositiveDegree(f"degrees must be >= 1, got {degrees}")
        if any(a > b for a, b in zip(degrees, degrees[1:])):
            raise NotWeaklyIncreasing(
                f"degrees must be weakly increasing, got {degrees}; use normalize()"
            )
        object.__setattr__(self, "degrees", degrees)

    @property
    def codim(self):
        return len(self.degrees)


def normalize(degrees):
    """Sort degrees weakly increasing and wrap in a CIType; a CIType is returned as is."""
    if isinstance(degrees, CIType):
        return degrees
    degrees = tuple(map(index, degrees))
    if any(e < 1 for e in degrees):
        raise NonPositiveDegree(f"degrees must be >= 1, got {degrees}")
    return CIType(tuple(sorted(degrees)))


def koszul_betti(t):
    """Betti diagram of the complete intersection of type t.

    Subset-sum multiplicities are accumulated one generator at a time.
    Cell counts never shrink, so KOSZUL_CELL_CAP is checked after each.
    """
    t = normalize(t)
    counts = {(0, 0): 1}
    for e in t.degrees:
        new = dict(counts)
        for (i, j), c in counts.items():
            key = (i + 1, j + e)
            new[key] = new.get(key, 0) + c
        counts = new
        if len(counts) > KOSZUL_CELL_CAP:
            raise SizeExceeded(f"Betti diagram of codimension {t.codim} exceeds the cap of "
                               f"{KOSZUL_CELL_CAP} cells")
    return Diagram._of({key: Fraction(c) for key, c in counts.items()})
