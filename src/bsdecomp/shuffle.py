"""Tensor products of diagrams and shuffle expansions of products of
pure diagrams.

The tensor product of two diagrams is bidegree convolution.  A product
of pure diagrams expands into a sum of pure diagrams indexed by the
shuffles of the factors' first-difference sequences; no coefficients
other than shuffle multiplicities appear with this normalization.
"""

from fractions import Fraction
from itertools import accumulate
from math import factorial, prod
from operator import index

from .diagram import Diagram
from .errors import SizeExceeded
from .koszul import normalize
from .pure import PureSum, check_degree_sequence, delta

__all__ = [
    "SHUFFLE_CAP",
    "TENSOR_CAP",
    "tensor",
    "shuffles",
    "shuffle_count",
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


def _product_sequences(ds):
    """The multiplication law: the partial sums, from the summed starting
    degrees, of each shuffle of the factors' (positive) first differences."""
    ds = [check_degree_sequence(d) for d in ds]
    start = sum(d[0] for d in ds)
    for s in shuffles([delta(d) for d in ds]):
        yield tuple(accumulate(s, initial=start))


def shuffle_product(ds):
    """Expand a product of pure diagrams as a merged sum of pure diagrams.

    Each shuffle contributes its pure diagram with coefficient 1;
    merging counts coincidences.
    """
    ds = list(ds)
    if not ds:
        raise ValueError("need at least one degree sequence")
    return PureSum.merged((1, p) for p in _product_sequences(ds))


def quotient_by_regular_element(dec, e):
    """Decomposition after quotienting by a regular element of degree e.

    That is the product with the element's Koszul diagram e * pi(0, e):
    each term (a, d) becomes e * a times the shuffle product of d and (0, e).
    """
    e = index(e)
    if e < 1:
        raise ValueError(f"element degree must be >= 1, got {e}")
    return PureSum.merged(
        (e * Fraction(coeff), p)
        for coeff, d in dec
        for p in _product_sequences([d, (0, e)])
    )


def ci_shuffle_decomposition(t):
    """Order-free decomposition of a complete intersection's diagram.

    The product of the generators' Koszul diagrams e_i * pi(0, e_i):
    prod(e_i) times one pure diagram per ordering of the degrees, on
    their partial sums.  Value-equal orderings merge.
    """
    t = normalize(t)
    mult = t.multiplicity
    return PureSum.merged(
        (mult, p) for p in _product_sequences([(0, e) for e in t.degrees])
    )

