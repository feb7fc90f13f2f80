from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from bsdecomp import CIType, Diagram, PureSum, koszul_betti, normalize
from bsdecomp.errors import NonPositiveDegree, NotWeaklyIncreasing, SizeExceeded
from bsdecomp.koszul import KOSZUL_CELL_CAP
from bsdecomp.shuffle import shuffle_product

from conftest import koszul_by_enumeration


class TestCIType:
    def test_normalize_sorts(self):
        assert normalize((4, 1, 2)).degrees == (1, 2, 4)

    def test_normalize_singleton(self):
        assert normalize((3,)).degrees == (3,)

    def test_normalize_returns_citype_unchanged(self):
        t = CIType((1, 2, 2))
        assert normalize(t) is t

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveDegree):
            normalize((0, 2))

    def test_rejects_unsorted_direct(self):
        with pytest.raises(NotWeaklyIncreasing):
            CIType((2, 1))

    @pytest.mark.parametrize("degrees", [(2.5, 3), (2, 3.0), (Fraction(7, 2),), (Fraction(4),)])
    def test_rejects_non_integers(self, degrees):
        # Degrees are not truncated: (2.5, 3) is not the type (2, 3).
        with pytest.raises(TypeError):
            CIType(degrees)
        with pytest.raises(TypeError):
            normalize(degrees)
        with pytest.raises(TypeError):
            koszul_betti(degrees)

    def test_accepts_bools_and_ints(self):
        assert normalize([2, True]) == CIType((1, 2))
        assert repr(normalize([2, True])) == "CIType(degrees=(1, 2))"

    def test_derived_quantities(self):
        # The regularity sum(e_i - 1) is the diagram's top row, j - i = 11.
        t = normalize((1, 2, 4, 8))
        assert max(j - i for i, j in koszul_betti(t)) == sum(e - 1 for e in t.degrees) == 11
        assert t.codim == 4


class TestKoszulBetti:
    def test_1_2_4_8_all_ones(self):
        k = koszul_betti(normalize((1, 2, 4, 8)))
        assert len(k) == 16
        assert all(v == 1 for _, v in k.items())
        assert k == koszul_by_enumeration((1, 2, 4, 8))

    def test_empty_type(self):
        assert koszul_betti(normalize(())) == Diagram({(0, 0): 1})

    def test_2_2(self):
        assert koszul_betti(normalize((2, 2))) == Diagram(
            {(0, 0): 1, (1, 2): 2, (2, 4): 1}
        )

    @settings(deadline=None)
    @given(
        st.lists(st.integers(1, 9), max_size=6).flatmap(
            lambda degrees: st.tuples(st.just(degrees), st.permutations(degrees))
        )
    )
    def test_order_of_degrees_is_irrelevant(self, pair):
        degrees, permuted = pair
        assert normalize(permuted) == normalize(degrees)
        assert koszul_betti(permuted) == koszul_betti(degrees)
        assert koszul_by_enumeration(permuted) == koszul_betti(degrees)

    def test_cell_cap(self):
        # n distinct powers of two give 2^n cells: 2^16 is under the cap, 2^17 over it.
        assert KOSZUL_CELL_CAP == 10**5
        assert len(koszul_betti(CIType(tuple(2**k for k in range(16))))) == 2**16
        message = f"^Betti diagram of codimension 17 exceeds the cap of {KOSZUL_CELL_CAP} cells$"
        with pytest.raises(SizeExceeded, match=message):
            koszul_betti(CIType(tuple(2**k for k in range(17))))

    def test_matches_enumeration_oracle(self):
        # Exhaustive against the 2^n oracle for all tuples with n <= 4, e <= 5.
        for n in range(5):
            for degrees in combinations_with_replacement(range(1, 6), n):
                assert koszul_betti(CIType(degrees)) == koszul_by_enumeration(degrees)

    def test_column_sums_are_binomials(self):
        for n in range(6):
            for degrees in combinations_with_replacement(range(1, 7), n):
                k = koszul_betti(CIType(degrees))
                for i in range(n + 1):
                    assert sum(v for (c, _), v in k.items() if c == i) == comb(n, i)

    def test_endpoints(self):
        t = normalize((3, 4, 5))
        k = koszul_betti(t)
        assert {j: v for (i, j), v in k.items() if i == 0} == {0: 1}
        assert {j: v for (i, j), v in k.items() if i == 3} == {12: 1}

    def test_equals_expanded_product_of_two_term_pures(self):
        # Cross-module oracle: the diagram is the expanded product of the
        # pure diagrams pi<0, e_i>, scaled by prod(e_i).
        for degrees in ((1, 2, 4, 8), (2, 3, 7), (2, 2, 3)):
            t = normalize(degrees)
            terms = shuffle_product([(0, e) for e in t.degrees])
            product = PureSum(tuple((prod(t.degrees) * q, d) for q, d in terms)).expand()
            assert product == koszul_betti(t)
