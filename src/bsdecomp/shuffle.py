"""Tensor products of diagrams and the multiplication law on formal sums
of pure diagrams.

The tensor product of two diagrams is bidegree convolution.  A product
of pure diagrams expands into a sum of pure diagrams indexed by the
shuffles of the factors' first-difference sequences; `multiply` extends
this bilinearly to products of formal sums.
"""

from collections import Counter
from itertools import accumulate, product
from math import factorial, prod
from operator import index, sub

from .diagram import Diagram
from .errors import SizeExceeded
from .koszul import normalize
from .pure import PureSum, check_degree_sequence

__all__ = [
    "SHUFFLE_CAP",
    "TENSOR_CAP",
    "tensor",
    "shuffles",
    "shuffle_count",
    "multiply",
    "shuffle_product",
    "quotient_by_regular_element",
    "ci_shuffle_decomposition",
]

SHUFFLE_CAP = 10**6
TENSOR_CAP = 10**6


def tensor(a, b):
    """Bidegree convolution of two diagrams.  The number of cell pairs is
    checked against the cap before the first pair is multiplied."""
    pairs = len(a) * len(b)
    if pairs > TENSOR_CAP:
        raise SizeExceeded(f"{pairs} cell pairs exceed the cap of {TENSOR_CAP}")
    entries = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            entries[key] = entries.get(key, 0) + v1 * v2
    return Diagram(entries)


def shuffle_count(sizes):
    """Number of interleavings: multinomial of the block sizes."""
    return factorial(sum(sizes)) // prod(factorial(s) for s in sizes)


def shuffles(sets):
    """All interleavings preserving each input sequence's internal order.

    Positions are distinguishable even when values repeat, so the result
    may contain value-equal duplicates.  Enumeration is lexicographic in
    the choice of which source supplies the next element.  The cap is
    checked at the call; the interleavings are then made one at a time.
    """
    sets = [tuple(s) for s in sets]
    count = shuffle_count([len(s) for s in sets])
    if count > SHUFFLE_CAP:
        raise SizeExceeded(f"{count} shuffles exceed the cap of {SHUFFLE_CAP}")
    return _interleavings(sets)


def _interleavings(sets):
    # Distinct permutations of the source labels in lexicographic order
    # (next permutation), each mapped to the values it takes in turn.
    labels = [k for k, s in enumerate(sets) for _ in s]
    last = len(labels) - 1
    while True:
        sources = [iter(s) for s in sets]
        yield tuple(map(next, map(sources.__getitem__, labels)))
        i = last - 1
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = labels[:i:-1]


def multiply(factors):
    """The multiplication law on formal sums of pure diagrams, each factor a
    PureSum or an iterable of (coefficient, degree sequence) terms.  Each
    choice of one term per factor, in itertools.product order, gives
    prod(a_k) times one pure diagram per shuffle of the factors' gaps, on
    partial sums from sum(d_k[0]).  The interleavings of all choices are
    counted against the cap first.  The empty product is the unit pi(0)."""
    factors = [[(coeff, check_degree_sequence(d)) for coeff, d in f] for f in factors]
    # Terms of equal length share a multinomial: count per tuple of such groups.
    lengths = [Counter(len(d) for _, d in f).items() for f in factors]
    count = 0
    for choice in product(*lengths):
        count += prod(n for _, n in choice) * shuffle_count([k - 1 for k, _ in choice])
        if count > SHUFFLE_CAP:
            raise SizeExceeded(f"{count} shuffles exceed the cap of {SHUFFLE_CAP}")

    def products():
        for choice in product(*factors):
            coeff = prod(a for a, _ in choice)
            start = sum(d[0] for _, d in choice)
            for s in shuffles([tuple(map(sub, d[1:], d)) for _, d in choice]):
                yield coeff, tuple(accumulate(s, initial=start))

    return PureSum.merged(products())


def shuffle_product(ds):
    """A product of pure diagrams as a merged sum of pure diagrams."""
    ds = list(ds)
    if not ds:
        raise ValueError("need at least one degree sequence")
    return multiply([[(1, d)] for d in ds])


def quotient_by_regular_element(dec, e):
    """Decomposition times the Koszul diagram e * pi(0, e) of a regular element."""
    e = index(e)
    if e < 1:
        raise ValueError(f"element degree must be >= 1, got {e}")
    return multiply([dec, [(e, (0, e))]])


def ci_shuffle_decomposition(t):
    """Order-free decomposition of a complete intersection's diagram: the product
    of the generators' Koszul diagrams e_i * pi(0, e_i), that is prod(e_i) times
    one pure diagram per ordering of the degrees, on their partial sums."""
    return multiply([[(e, (0, e))] for e in normalize(t).degrees])
