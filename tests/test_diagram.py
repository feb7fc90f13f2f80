from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, strategies as st

from bsdecomp import (
    BettiFormatError,
    Diagram,
    PureSum,
    format_betti,
    format_fraction,
    parse_betti,
    pure,
)
from bsdecomp.koszul import koszul_betti, normalize

entries_strategy = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(-6, 8)),
    st.fractions(max_denominator=12).filter(lambda q: q != 0),
    max_size=8,
)
diagrams = entries_strategy.map(Diagram)


def plus(*diagrams):
    """The sum of diagrams, which the constructor forms from their entries."""
    return Diagram([entry for d in diagrams for entry in d.items()])


def minus(a):
    return Diagram({key: -value for key, value in a.items()})


class TestAlgebra:
    @pytest.mark.parametrize("cell", [(0, 0.5), (0.0, 1), (Fraction(1), 2)])
    def test_rejects_non_integer_cells(self, cell):
        # (0, 0.5) is not truncated to (0, 0).
        with pytest.raises(TypeError):
            Diagram({cell: 1})

    def test_accepts_bool_cells(self):
        assert Diagram({(True, False): 1}) == Diagram({(1, 0): 1})
        assert list(Diagram({(True, False): 1})) == [(1, 0)]

    def test_add_identity(self, sample_diagram):
        assert plus(sample_diagram, Diagram()) == sample_diagram
        assert Diagram([*sample_diagram.items(), ((0, 0), 0), ((3, 3), 0)]) == sample_diagram

    def test_add_prop32_column0(self):
        # 2*pi<0,1,3> + 2*pi<0,2,3> is the codim-2 diagram of type (1,2);
        # its column-0 entry is 1.
        total = PureSum(((2, (0, 1, 3)), (2, (0, 2, 3)))).expand()
        assert total[(0, 0)] == 1

    def test_add_inverse(self, sample_diagram):
        assert plus(sample_diagram, minus(sample_diagram)) == Diagram()

    def test_scale_pure_0234(self):
        scaled = PureSum(((24, (0, 2, 3, 4)),)).expand()
        assert scaled == Diagram({(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3})

    def test_no_float_entries(self):
        with pytest.raises(TypeError):
            Diagram({(0, 0): 0.5})

    @given(diagrams, diagrams)
    def test_add_commutative(self, a, b):
        # The constructor's sum does not depend on the order of the entries.
        assert plus(a, b) == plus(b, a)

    @given(diagrams, diagrams, diagrams)
    def test_add_associative(self, a, b, c):
        assert plus(plus(a, b), c) == plus(a, plus(b, c)) == plus(a, b, c)


class TestDualTwist:
    """Self-duality up to twist, checked cell by cell: entry (i, j) of a
    Koszul diagram of n degrees summing to s equals entry (n - i, s - j)."""

    @staticmethod
    def mirror(k, n, s):
        return {(n - i, s - j): v for (i, j), v in k.items()}

    def test_koszul_self_dual(self):
        k = koszul_betti(normalize((1, 2)))
        assert self.mirror(k, 2, 3) == dict(k.items())

    def test_koszul_self_dual_exhaustive(self):
        # All weakly increasing tuples with sum(e) <= 12, up to 4 generators.
        def tuples(n, lo, budget):
            if n == 0:
                yield ()
                return
            for e in range(lo, budget + 1):
                for rest in tuples(n - 1, e, budget - e):
                    yield (e,) + rest

        for n in range(1, 5):
            for degrees in tuples(n, 1, 12):
                k = koszul_betti(normalize(degrees))
                assert self.mirror(k, n, sum(degrees)) == dict(k.items()), degrees


class TestShape:
    def test_width_regularity(self):
        d = Diagram({(0, 0): 1, (2, 5): 1})
        assert d.width == 2

    @given(diagrams, diagrams)
    def test_no_stored_zero(self, a, b):
        # Entries that cancel in the constructor's sum are not stored.
        total = plus(a, b, minus(a))
        assert all(v != 0 for _, v in total.items())
        assert total == b
        assert not plus(a, minus(a))

    def test_equals_different_support(self):
        assert pure((0, 1, 3)) != pure((0, 2, 3))

    @given(diagrams)
    def test_iterates_cells(self, a):
        # Bounded by islice, so a Diagram that iterates forever fails here.
        assert len(list(islice(iter(a), len(a) + 1))) == len(a)
        assert set(islice(a, len(a) + 1)) == {key for key, _ in a.items()}


class TestBettiFormat:
    def test_roundtrip(self, sample_diagram):
        assert parse_betti(format_betti(sample_diagram)) == sample_diagram

    @given(diagrams)
    def test_roundtrip_property(self, a):
        assert parse_betti(format_betti(a)) == a

    def test_integer_shorthand(self):
        d = parse_betti("BETTI 1\n0\t0\t3\n")
        assert d[(0, 0)] == 3

    def test_missing_header(self):
        with pytest.raises(BettiFormatError):
            parse_betti("0\t0\t1\n")

    def test_rejects_duplicates(self):
        with pytest.raises(BettiFormatError) as exc:
            parse_betti("BETTI 1\n0\t0\t1\n0\t0\t2\n")
        assert exc.value.line == 3

    def test_rejects_non_reduced(self):
        with pytest.raises(BettiFormatError):
            parse_betti("BETTI 1\n0\t0\t2/4\n")

    def test_rejects_zero_entry(self):
        with pytest.raises(BettiFormatError):
            parse_betti("BETTI 1\n0\t0\t0\n")

    def test_rejects_unsorted(self):
        with pytest.raises(BettiFormatError):
            parse_betti("BETTI 1\n1\t0\t1\n0\t0\t1\n")

    def test_rejects_negative_denominator(self):
        with pytest.raises(BettiFormatError):
            parse_betti("BETTI 1\n0\t0\t1/-2\n")

    def test_empty_diagram_roundtrip(self):
        assert parse_betti(format_betti(Diagram())) == Diagram()

    def test_fraction_formatting(self):
        text = format_betti(Diagram({(0, 0): Fraction(1, 3)}))
        assert "1/3" in text


class TestFormatFraction:
    @pytest.mark.parametrize("value, text", [
        (Fraction(1, 3), "1/3"), (Fraction(-6, 4), "-3/2"), (Fraction(8, 4), "2"), (7, "7"),
        (0, "0"),
    ])
    def test_exact_values(self, value, text):
        assert format_fraction(value) == text

    @pytest.mark.parametrize("value", [0.1, 2.0])
    def test_rejects_floats(self, value):
        with pytest.raises(TypeError, match="floating-point"):
            format_fraction(value)
