from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from bsdecomp import (
    Diagram,
    EmptyColumn,
    NotADegreeSequence,
    check_degree_sequence,
    min_degree_sequence,
    pure,
)
from bsdecomp.pure import format_sequence, parse_sequence
from bsdecomp.shuffle import shuffle_product

from conftest import koszul_by_enumeration

degree_sequences = st.lists(
    st.integers(-8, 15), min_size=1, max_size=5, unique=True
).map(lambda xs: tuple(sorted(xs)))


class TestPure:
    def test_example_0234(self):
        p = pure((0, 2, 3, 4))
        assert p.items() == [
            ((0, 0), Fraction(1, 24)),
            ((1, 2), Fraction(1, 4)),
            ((2, 3), Fraction(1, 3)),
            ((3, 4), Fraction(1, 8)),
        ]

    def test_two_term(self):
        for e in (1, 2, 5):
            assert pure((0, e)) == Diagram({(0, 0): Fraction(1, e), (1, e): Fraction(1, e)})

    def test_singleton(self):
        assert pure((5,)) == Diagram({(0, 5): 1})

    def test_rejects_non_increasing(self):
        with pytest.raises(NotADegreeSequence):
            pure((0, 0, 1))

    @pytest.mark.parametrize("d", [(0, 1.5), (0, 1.0), (0, Fraction(3, 2)), (0, "1")])
    def test_rejects_non_integers(self, d):
        # (0, 1.5) is not truncated to (0, 1).
        with pytest.raises(TypeError):
            pure(d)
        with pytest.raises(TypeError):
            check_degree_sequence(d)

    def test_accepts_bools(self):
        assert check_degree_sequence((False, True, 2)) == (0, 1, 2)
        assert format_sequence(check_degree_sequence((False, True))) == "(0,1)"

    @given(degree_sequences)
    def test_one_positive_entry_per_column(self, d):
        p = pure(d)
        for i in range(len(d)):
            col = {j: v for (k, j), v in p.items() if k == i}
            assert list(col) == [d[i]]
            assert col[d[i]] > 0

    @given(degree_sequences)
    def test_column0_closed_form(self, d):
        if len(d) == 1:
            assert pure(d)[(0, d[0])] == 1
            return
        assert pure(d)[(0, d[0])] * prod(dk - d[0] for dk in d[1:]) == 1

    @given(degree_sequences)
    def test_unchecked_build_equals_checked(self, d):
        p = pure(d)
        checked = Diagram(p.items())
        assert p == checked and checked == p
        assert hash(p) == hash(checked)

    @given(degree_sequences, st.integers(-10, 10))
    def test_dual_of_pure_is_pure(self, d, shift):
        # Mirroring the cells (i, j) -> (n - i, shift - j) of pure(d) gives
        # the pure diagram on the mirrored sequence (shift - d_n, ..., shift - d_0).
        n = len(d) - 1
        mirrored = tuple(shift - x for x in reversed(d))
        cells = {(n - i, shift - j): v for (i, j), v in pure(d).items()}
        assert cells == dict(pure(mirrored).items())


class TestDeltaSigma:
    @given(degree_sequences)
    def test_roundtrip(self, d):
        # A product takes each factor's first differences and their partial
        # sums from d_0, which invert them: one factor comes back unchanged.
        assert shuffle_product([d]).terms == ((1, d),)


class TestMinDegreeSequence:
    def test_koszul_1_2(self):
        assert min_degree_sequence(koszul_by_enumeration((1, 2))) == (0, 1, 3)

    def test_pure_diagram(self):
        assert min_degree_sequence(pure((0, 2, 3, 4))) == (0, 2, 3, 4)

    def test_non_increasing_minima(self):
        with pytest.raises(NotADegreeSequence):
            min_degree_sequence(Diagram({(0, 0): 1, (1, 0): 1}))

    def test_empty_column(self):
        with pytest.raises(EmptyColumn):
            min_degree_sequence(Diagram({(0, 0): 1, (2, 3): 1}))

    def test_empty_diagram(self):
        with pytest.raises(EmptyColumn):
            min_degree_sequence(Diagram())


class TestSerialization:
    def test_format(self):
        assert format_sequence((0, 2, 3, 4)) == "(0,2,3,4)"

    def test_parse(self):
        assert parse_sequence("(0,2,3,4)") == (0, 2, 3, 4)
        assert parse_sequence("0,2,3,4") == (0, 2, 3, 4)

    @given(degree_sequences)
    def test_roundtrip(self, d):
        assert parse_sequence(format_sequence(d)) == d
