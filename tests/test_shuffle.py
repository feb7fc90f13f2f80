import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, prod

import pytest
from hypothesis import given, strategies as st

from bsdecomp import (
    Diagram,
    PureSum,
    SizeExceeded,
    ci_shuffle_decomposition,
    greedy_decompose,
    koszul_betti,
    multiply,
    normalize,
    pure,
    quotient_by_regular_element,
    shuffle_count,
    shuffle_product,
    shuffles,
    tensor,
)
from bsdecomp.errors import LengthMismatch, NotADegreeSequence
from bsdecomp.shuffle import SHUFFLE_CAP, TENSOR_CAP
from reference import (
    QUOTIENT_2_3_4_BY_7,
    QUOTIENT_BASE_2_3_4,
    SHUFFLE_0_3_5__0_1_6,
    prod_of,
    shuffle_identity_check,
)

from conftest import koszul_by_enumeration

UNIT = Diagram({(0, 0): 1})

small_diagrams = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(-4, 6)),
    st.fractions(max_denominator=8).filter(lambda q: q != 0),
    max_size=6,
).map(Diagram)


class TestTensor:
    def test_unit(self, sample_diagram):
        assert tensor(sample_diagram, UNIT) == sample_diagram

    def test_koszul_factorization(self):
        # Both sides via independent subset-sum enumeration.
        a = koszul_by_enumeration((1, 2))
        b = koszul_by_enumeration((4, 8))
        assert tensor(a, b) == koszul_by_enumeration((1, 2, 4, 8))

    @given(small_diagrams, small_diagrams)
    def test_commutative(self, a, b):
        assert tensor(a, b) == tensor(b, a)

    @given(small_diagrams, small_diagrams, small_diagrams)
    def test_bilinear(self, a, b, c):
        b_plus_c = Diagram([*b.items(), *c.items()])
        assert tensor(a, b_plus_c) == Diagram([*tensor(a, b).items(), *tensor(a, c).items()])

    def test_cap(self):
        assert TENSOR_CAP == 10**6
        a = Diagram({(0, j): 1 for j in range(1001)})
        b = Diagram({(0, j): 1 for j in range(1000)})
        # 1,001,000 cell pairs: refused before the first is multiplied.
        with pytest.raises(SizeExceeded, match="^1001000 cell pairs exceed the cap of 1000000$"):
            tensor(a, b)


class TestShuffles:
    def test_example_interleavings(self):
        result = list(shuffles([(3, 2), (1, 5)]))
        assert result == [
            (3, 2, 1, 5),
            (3, 1, 2, 5),
            (3, 1, 5, 2),
            (1, 3, 2, 5),
            (1, 3, 5, 2),
            (1, 5, 3, 2),
        ]

    def test_single_set(self):
        assert list(shuffles([(7,)])) == [(7,)]

    def test_repeated_singletons_distinguishable(self):
        assert list(shuffles([(2,), (2,)])) == [(2, 2), (2, 2)]

    def test_count_binomial(self):
        for a, b in ((2, 2), (3, 1), (4, 3)):
            result = list(shuffles([tuple(range(1, a + 1)), tuple(range(1, b + 1))]))
            assert len(result) == comb(a + b, a)
            assert shuffle_count((a, b)) == comb(a + b, a)

    def test_cap(self):
        assert SHUFFLE_CAP == 10**6
        shuffles([(1,)] * 9)  # 9! = 362,880: under the cap, nothing made yet
        with pytest.raises(SizeExceeded, match="^3628800 shuffles exceed the cap of 1000000$"):
            shuffles([(1,)] * 10)

    def test_order_oracle(self):
        # Lexicographic in the source labels: the sorted distinct
        # permutations of the label multiset, each mapped to values.
        rng = random.Random(7)
        for _ in range(300):
            sizes = [rng.randint(0, 3) for _ in range(rng.randint(0, 4))]
            while sum(sizes) > 7:  # at most 7! label orders
                sizes.remove(max(sizes))
            sets = [tuple(rng.randint(0, 5) for _ in range(n)) for n in sizes]
            labels = [k for k, s in enumerate(sets) for _ in s]
            expected = []
            for order in sorted(set(permutations(labels))):
                sources = [iter(s) for s in sets]
                expected.append(tuple(next(sources[k]) for k in order))
            assert list(shuffles(sets)) == expected, sets

    def test_first_item_is_lazy(self):
        sets = [tuple(range(1, 11))] * 2  # 184,756 interleavings
        tracemalloc.start()
        try:
            first = next(shuffles(sets))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == sets[0] + sets[1]
        assert peak < 2**20


class TestProdOf:
    def test_examples(self):
        assert prod_of((3, 2)) == 15
        assert prod_of(()) == 1
        assert prod_of((1, 2, 4, 8)) == 315


class TestShuffleProduct:
    def test_example_6_terms(self):
        dec = shuffle_product([(0, 3, 5), (0, 1, 6)])
        assert dec.terms == SHUFFLE_0_3_5__0_1_6

    def test_expansion_matches_tensor(self):
        dec = shuffle_product([(0, 3, 5), (0, 1, 6)])
        assert dec.expand() == tensor(pure((0, 3, 5)), pure((0, 1, 6)))

    def test_permutation_sum_1_2_4_8(self):
        dec = shuffle_product([(0, 1), (0, 2), (0, 4), (0, 8)])
        assert len(dec) == 24
        assert all(c == 1 for c, _ in dec)

    def test_single_factor(self):
        assert shuffle_product([(0, 2, 3)]).terms == ((1, (0, 2, 3)),)

    def test_randomized_oracle(self):
        rng = random.Random(1)
        for _ in range(100):
            c = tuple(sorted(rng.sample(range(-6, 13), rng.randint(1, 4))))
            d = tuple(sorted(rng.sample(range(-6, 13), rng.randint(1, 4))))
            dec = shuffle_product([c, d])
            assert dec.expand() == tensor(pure(c), pure(d))


class TestQuotient:
    def test_example_2_3_4_by_7(self):
        dec = quotient_by_regular_element(QUOTIENT_BASE_2_3_4, 7)
        terms = {d: c for c, d in dec}
        for coeff, seq in QUOTIENT_2_3_4_BY_7:
            assert terms[seq] == coeff
        assert dec.expand() == koszul_betti(normalize((2, 3, 4, 7)))

    def test_merging_of_duplicates(self):
        dec = quotient_by_regular_element([(1, (0, 1))], 1)
        assert dec.terms == ((2, (0, 1, 2)),)
        assert dec.expand() == koszul_betti(normalize((1, 1)))

    def test_single_generator(self):
        dec = quotient_by_regular_element([(1, (0,))], 5)
        assert dec.terms == ((5, (0, 5)),)

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(ValueError):
            quotient_by_regular_element([(1, (0, 1))], 0)

    @pytest.mark.parametrize("e", [2.9, 2.0, Fraction(5, 2)])
    def test_rejects_non_integer_degree(self, e):
        # A degree of 2.9 is not truncated to 2.
        with pytest.raises(TypeError):
            quotient_by_regular_element([(1, (0, 1))], e)

    def test_accepts_bool_degree(self):
        assert quotient_by_regular_element([(1, (0,))], True).terms == ((1, (0, 1)),)

    def test_rejects_float_coefficient(self):
        # 0.1 is not read as its binary value 3602879701896397/2**55.
        with pytest.raises(TypeError, match="^floating-point entries are not allowed$"):
            quotient_by_regular_element([(0.1, (0, 1))], 2)

    def test_cap_counts_all_terms(self):
        # 1,001 terms of 1,000 interleavings each: refused as one product,
        # though each term alone is under the cap.
        d = tuple(range(1000))
        with pytest.raises(SizeExceeded, match="^1001000 shuffles exceed the cap of 1000000$"):
            quotient_by_regular_element([(1, d)] * 1001, 1)

    def test_oracle_tensor_with_koszul(self):
        # Quotienting multiplies the diagram by that of the element, e * pi(0, e).
        rng = random.Random(3)
        for _ in range(100):
            d = sorted(rng.sample(range(-4, 8), rng.randint(1, 4)))
            chain = []
            for _ in range(rng.randint(1, 4)):
                chain.append((Fraction(rng.randint(1, 9), rng.randint(1, 4)), tuple(d)))
                k = rng.randrange(len(d))
                if k == len(d) - 1 or d[k] + 1 < d[k + 1]:
                    d[k] += 1
            dec = PureSum(tuple(chain))
            e = rng.randint(1, 5)
            got = quotient_by_regular_element(dec, e).expand()
            assert got == tensor(dec.expand(), koszul_betti((e,))), (chain, e)


class TestCIShuffle:
    def test_1_2_4_8(self):
        dec = ci_shuffle_decomposition(normalize((1, 2, 4, 8)))
        assert len(dec) == 24
        assert all(c == 64 for c, _ in dec)
        assert all(d[0] == 0 and d[-1] == 15 for _, d in dec)
        assert dec.expand() == koszul_betti(normalize((1, 2, 4, 8)))

    def test_2_3_4_7(self):
        dec = ci_shuffle_decomposition(normalize((2, 3, 4, 7)))
        assert len(dec) == 24
        assert all(c == 168 for c, _ in dec)

    def test_repeated_degrees_merge(self):
        dec = ci_shuffle_decomposition(normalize((3, 3)))
        assert dec.terms == ((18, (0, 3, 6)),)
        assert dec.expand() == koszul_betti(normalize((3, 3)))

    def test_reconstructs_small_types(self):
        from itertools import combinations_with_replacement

        for n in range(1, 5):
            for degrees in combinations_with_replacement(range(1, 9), n):
                t = normalize(degrees)
                dec = ci_shuffle_decomposition(t)
                assert dec.expand() == koszul_betti(t), degrees
                distinct = len(set(degrees)) == len(degrees)
                if distinct:
                    assert all(c == prod(t.degrees) for c, _ in dec)


TYPES_1_2 = [t for n in (1, 2) for t in combinations_with_replacement(range(1, 5), n)]


class TestMultiply:
    def test_empty_product_is_unit(self):
        assert multiply([]).terms == ((1, (0,)),)

    def test_unit_factor(self):
        for t in TYPES_1_2:
            dec = greedy_decompose(koszul_betti(t))
            assert multiply([dec, [(1, (0,))]]) == dec, t
            assert multiply([[(1, (0,))], dec]) == dec, t

    def test_order_of_two_term_sums(self):
        # Choices in itertools.product order, each choice's shuffles in
        # lexicographic order; (1, 2, 3) arises twice from the first.
        a = [(2, (0, 1)), (3, (0, 2))]
        b = [(5, (1, 2)), (7, (0, 3))]
        dec = multiply([a, b])
        assert dec.terms == (
            (20, (1, 2, 3)),
            (14, (0, 1, 4)),
            (14, (0, 3, 4)),
            (15, (1, 3, 4)),
            (15, (1, 2, 4)),
            (21, (0, 2, 5)),
            (21, (0, 3, 5)),
        )
        assert dec.expand() == tensor(PureSum(tuple(a)).expand(), PureSum(tuple(b)).expand())

    def test_law_on_greedy_decompositions(self):
        # The product of two decompositions expands to the tensor product
        # of the diagrams, for every pair of types of codim 1-2, degrees <= 4.
        decs = {t: greedy_decompose(koszul_betti(t)) for t in TYPES_1_2}
        for t1 in TYPES_1_2:
            for t2 in TYPES_1_2:
                got = multiply([decs[t1], decs[t2]]).expand()
                assert got == tensor(koszul_betti(t1), koszul_betti(t2)), (t1, t2)

    def test_law_on_ci_decompositions(self):
        # The order-free decomposition of t1 + t2 is the product of those of t1 and t2.
        for t1 in TYPES_1_2:
            for t2 in TYPES_1_2:
                got = multiply([ci_shuffle_decomposition(t1), ci_shuffle_decomposition(t2)])
                want = ci_shuffle_decomposition(t1 + t2)
                assert {d: c for c, d in got} == {d: c for c, d in want}, (t1, t2)

    def test_cap_counts_all_choices_without_building_them(self):
        # 1,001 x 1,000 one-cell terms: 1,001,000 choices of one interleaving each.
        factors = [[(1, (k,)) for k in range(1001)], [(1, (k,)) for k in range(1000)]]
        message = "^1001000 shuffles exceed the cap of 1000000$"
        start = time.perf_counter()
        with pytest.raises(SizeExceeded, match=message):
            multiply(factors)
        assert time.perf_counter() - start < 0.5
        tracemalloc.start()
        try:
            with pytest.raises(SizeExceeded, match=message):
                multiply(factors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_validates_terms(self):
        with pytest.raises(NotADegreeSequence):
            multiply([[(1, (0, 1))], [(1, (2, 1))]])

    def test_rejects_float_coefficient(self):
        with pytest.raises(TypeError, match="^floating-point entries are not allowed$"):
            multiply([[(Fraction(1, 2), (0, 1))], [(0.5, (0, 2))]])


class TestExpandPureSum:
    def test_single_term(self):
        assert PureSum(((1, (0, 2, 3)),)).expand() == pure((0, 2, 3))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            PureSum(((1, (0, 1)), (1, (0, 1, 2)))).expand()

    def test_empty_expands_to_zero(self):
        assert PureSum(()).expand() == Diagram()


class TestMergePureSum:
    def test_sums_in_first_seen_order(self):
        merged = PureSum.merged(
            [(2, (0, 3)), (1, (0, 1)), (Fraction(1, 2), (0, 3)), (3, (0, 2))]
        )
        assert merged.terms == ((Fraction(5, 2), (0, 3)), (1, (0, 1)), (3, (0, 2)))

    def test_drops_zero_totals(self):
        merged = PureSum.merged([(1, (0, 1)), (0, (0, 4)), (2, (0, 2)), (-1, (0, 1))])
        assert merged.terms == ((2, (0, 2)),)

    def test_coefficients_are_fractions(self):
        merged = PureSum.merged([(1, (0, 1)), (2, (0, 1)), (True, (0, 2))])
        assert [type(c) for c, _ in merged] == [Fraction, Fraction]
        assert merged.terms == ((3, (0, 1)), (1, (0, 2)))

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.1, (0, 1))],
            [(Fraction(1, 2), (0, 1)), (0.5, (0, 1))],
            [(0.5, (0, 1)), (-0.5, (0, 1))],  # a float total of zero too
        ],
    )
    def test_rejects_floats(self, pairs):
        with pytest.raises(TypeError, match="^floating-point entries are not allowed$"):
            PureSum.merged(pairs)

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            PureSum.merged([("1/2", (0, 1))])


class TestShuffleIdentity:
    def test_example_sets(self):
        assert shuffle_identity_check([(3, 2), (1, 5)]) == 1

    def test_singleton(self):
        assert shuffle_identity_check([(4,)]) == 1

    def test_randomized(self):
        rng = random.Random(99)
        for _ in range(200):
            nsets = rng.randint(1, 3)
            sets = [
                tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
                for _ in range(nsets)
            ]
            value = shuffle_identity_check(sets)
            assert value == Fraction(1), sets
