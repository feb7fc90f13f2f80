"""Tensor products of diagrams and shuffle expansions of products of
pure diagrams.

The tensor product of two diagrams is bidegree convolution.  A product
of pure diagrams expands into a sum of pure diagrams indexed by the
shuffles of the factors' first-difference sequences; no coefficients
other than shuffle multiplicities appear with this normalization.
"""

from fractions import Fraction
from itertools import permutations
from math import factorial, prod

from .diagram import Diagram
from .errors import SizeExceeded
from .koszul import normalize
from .pure import PureSum, check_degree_sequence, delta, sigma

__all__ = [
    "DEFAULT_SHUFFLE_CAP",
    "tensor",
    "shuffles",
    "shuffle_count",
    "prod_of",
    "shuffle_product",
    "quotient_by_regular_element",
    "ci_shuffle_decomposition",
    "shuffle_identity_check",
]

DEFAULT_SHUFFLE_CAP = 10**6


def tensor(a, b):
    """Bidegree convolution of two diagrams."""
    entries = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            key = (i1 + i2, j1 + j2)
            entries[key] = entries.get(key, 0) + v1 * v2
    return Diagram(entries)


def shuffle_count(sizes):
    """Number of interleavings: multinomial of the block sizes."""
    return factorial(sum(sizes)) // prod(factorial(s) for s in sizes)


def _check_cap(count, cap):
    if cap is None:
        cap = DEFAULT_SHUFFLE_CAP
    if count > cap:
        raise SizeExceeded(f"{count} shuffles exceed the cap of {cap}")


def shuffles(sets, cap=None):
    """All interleavings preserving each input sequence's internal order.

    Positions are distinguishable even when values repeat, so the result
    may contain value-equal duplicates.  Enumeration is lexicographic in
    the choice of which source supplies the next element.  The cap is
    checked at the call; the interleavings are then made one at a time.
    """
    sets = [tuple(s) for s in sets]
    _check_cap(shuffle_count([len(s) for s in sets]), cap)
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


def prod_of(s):
    """Product of the running partial sums s_1 (s_1+s_2) ... (s_1+...+s_r)."""
    total = 0
    result = 1
    for x in s:
        total += x
        result *= total
    return Fraction(result)


def shuffle_product(ds, cap=None):
    """Expand a product of pure diagrams as a merged sum of pure diagrams.

    Each shuffle of the factors' first differences contributes one term
    pi<partial sums from the summed starting degrees> with coefficient 1;
    merging counts coincidences.
    """
    ds = [check_degree_sequence(d) for d in ds]
    if not ds:
        raise ValueError("need at least one degree sequence")
    start = sum(d[0] for d in ds)
    diffs = [delta(d) for d in ds]
    return PureSum.merged(
        (1, sigma(s, start)) for s in shuffles(diffs, cap=cap)
    )


def quotient_by_regular_element(dec, e, cap=None):
    """Decomposition after quotienting by a regular element of degree e.

    That is the product with the element's Koszul diagram e * pi(0, e):
    each term (a, d) becomes e * a times the shuffle product of d and (0, e).
    """
    e = int(e)
    if e < 1:
        raise ValueError(f"element degree must be >= 1, got {e}")
    return PureSum.merged(
        (e * Fraction(coeff) * c, p)
        for coeff, d in dec
        for c, p in shuffle_product([d, (0, e)], cap=cap)
    )


def ci_shuffle_decomposition(t, cap=None):
    """Order-free decomposition of a complete intersection's diagram.

    The multiplicity prod(e_i) times the sum over all orderings of the
    generator degrees of the pure diagram on their partial sums.
    Value-equal orderings merge with integer multiplicities.
    """
    t = normalize(t)
    _check_cap(factorial(t.codim), cap)
    mult = t.multiplicity
    return PureSum.merged(
        (mult, sigma(p, 0)) for p in permutations(t.degrees)
    )


def shuffle_identity_check(sets, cap=None):
    """Sum over shuffles of prod(Prod(A_i)) / Prod(sigma); always 1."""
    sets = [tuple(s) for s in sets]
    numerator = prod(prod_of(s) for s in sets)
    return sum(
        (numerator / prod_of(s) for s in shuffles(sets, cap=cap)),
        Fraction(0),
    )
