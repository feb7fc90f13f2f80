"""Sparse Betti diagrams with exact rational entries.

A diagram is a finitely supported map (i, j) -> Q with i >= 0 and j any
integer.  Zero entries are never stored, so equality is structural.  All
arithmetic is exact; no floats appear anywhere.
"""

import re
from fractions import Fraction
from operator import attrgetter, index

from .errors import BettiFormatError

__all__ = [
    "Diagram",
    "format_betti",
    "format_fraction",
    "parse_betti",
    "parse_fraction",
    "render_grid",
]


def _as_fraction(value):
    if isinstance(value, float):
        raise TypeError("floating-point entries are not allowed")
    return Fraction(value)


_ZERO_VALUE = Fraction(0)


class Diagram:
    """Immutable sparse diagram over the rationals.

    Construct from a mapping or an iterable of ((i, j), value) pairs;
    repeated keys are summed and zero results dropped.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=()):
        items = entries.items() if isinstance(entries, (dict, Diagram)) else entries
        acc = {}
        for (i, j), value in items:
            i, j = index(i), index(j)
            if i < 0:
                raise ValueError(f"homological index must be >= 0, got {i}")
            value = _as_fraction(value)
            if value == 0:
                continue
            key = (i, j)
            total = acc.get(key, 0) + value
            if total == 0:
                acc.pop(key, None)
            else:
                acc[key] = total
        self._entries = acc

    @classmethod
    def _of(cls, entries):
        """Wrap a dict of nonzero Fractions at valid cells, unchecked and uncopied."""
        result = cls.__new__(cls)
        result._entries = entries
        return result

    # -- access ---------------------------------------------------------

    def __getitem__(self, key):
        return self._entries.get(key, _ZERO_VALUE)

    def items(self):
        """Entries sorted by (i, j)."""
        return sorted(self._entries.items())

    def __iter__(self):
        """The stored cells (i, j), like a dict's keys."""
        return iter(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __len__(self):
        return len(self._entries)

    @property
    def width(self):
        """Largest stored homological index."""
        if not self._entries:
            raise ValueError("empty diagram has no width")
        return max(i for i, _ in self._entries)

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Diagram):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(frozenset(self._entries.items()))

    def __repr__(self):
        return f"Diagram({dict(self.items())!r})"


class Record:
    """Base of the package's value classes: the fields are the `__slots__`,
    compared, hashed and shown in order, and set once, in `__init__`.  A mutable
    subclass takes object's `__setattr__` and `__delattr__`, and no `__hash__`."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # pickle and copy call the constructor
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def format_fraction(q):
    """`p/q` in lowest terms, or bare `p` when the denominator is 1."""
    q = _as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# An integer token: ASCII digits after an optional minus sign.  `int()`
# alone would also take `+`, `_`, surrounding spaces and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


def parse_fraction(text):
    """Read `p`, or `p/q` with q > 0 in lowest terms: the BETTI/1 value grammar."""
    num, sep, den = text.partition("/")
    if not _INTEGER.fullmatch(num) or sep and not _INTEGER.fullmatch(den):
        raise ValueError(f"bad rational {text!r}")
    p = int(num)
    q = int(den) if sep else 1
    if q <= 0:
        raise ValueError(f"denominator must be positive in {text!r}")
    value = Fraction(p, q)
    if sep and (value.numerator != p or value.denominator != q):
        raise ValueError(f"fraction {text!r} is not in lowest terms")
    return value


def render_grid(cells):
    """Render sparse cells {(i, j): str} in the conventional grid layout.

    Grid row r holds the cells (i, r + i): rows are indexed by j - i,
    columns by i.  Columns are right-aligned and space-separated; an empty
    cell, or an empty grid, is shown as ".".
    """
    if not cells:
        return "."
    rows = [j - i for i, j in cells]
    cols = [i for i, _ in cells]
    lo, hi = min(rows), max(rows)
    ncols = max(cols) + 1
    grid = [
        [cells.get((i, r + i), ".") for i in range(ncols)]
        for r in range(lo, hi + 1)
    ]
    widths = [max(len(line[i]) for line in grid) for i in range(ncols)]
    return "\n".join(
        " ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)).rstrip()
        for line in grid
    )


# -- BETTI/1 text format ------------------------------------------------

BETTI_HEADER = "BETTI 1"


def format_betti(diagram):
    """Serialize a diagram in the BETTI/1 format."""
    lines = [BETTI_HEADER]
    for (i, j), value in diagram.items():
        lines.append(f"{i}\t{j}\t{format_fraction(value)}")
    return "\n".join(lines) + "\n"


def parse_betti(text):
    """Parse a BETTI/1 document, rejecting malformed input."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != BETTI_HEADER:
        raise BettiFormatError(f"expected header {BETTI_HEADER!r}", 1)
    entries = {}
    previous = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise BettiFormatError("expected i<TAB>j<TAB>value", lineno)
        if not (_INTEGER.fullmatch(parts[0]) and _INTEGER.fullmatch(parts[1])):
            raise BettiFormatError("bad integer index", lineno)
        i, j = int(parts[0]), int(parts[1])
        if i < 0:
            raise BettiFormatError("homological index must be >= 0", lineno)
        try:
            value = parse_fraction(parts[2])
        except ValueError as exc:
            raise BettiFormatError(str(exc), lineno) from None
        if value == 0:
            raise BettiFormatError("zero entries may not be stored", lineno)
        if (i, j) in entries:
            raise BettiFormatError(f"duplicate entry ({i},{j})", lineno)
        if previous is not None and (i, j) <= previous:
            raise BettiFormatError("entries must be sorted by (i, j)", lineno)
        previous = (i, j)
        entries[(i, j)] = value
    return Diagram._of(entries)
