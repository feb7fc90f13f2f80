from itertools import combinations, combinations_with_replacement

import pytest

from bsdecomp import (
    CIType,
    EliminationTable,
    closed_form_decomposition,
    first_elimination,
    greedy_decompose,
    koszul_betti,
    normalize,
)
from bsdecomp.errors import RequiresStrictDegrees, UnsupportedCodimension


def observed_first_columns(degrees):
    table = EliminationTable.of(greedy_decompose(koszul_betti(CIType(degrees))))
    return tuple(sorted({i for (i, _), it in table.cells.items() if it == 1}))


def paper_rule(a, b, c, d):
    """The paper's codim-4 rule: the sign of a(b+2c+d) - c(c+d)."""
    lhs, rhs = a * (b + 2 * c + d), c * (c + d)
    return (1,) if lhs < rhs else (2,) if lhs > rhs else (1, 2)


class TestClosedForm:
    def test_codim1(self):
        assert closed_form_decomposition(normalize((3,))).terms == ((3, (0, 3)),)

    def test_codim2(self):
        assert closed_form_decomposition(normalize((1, 2))).terms == (
            (2, (0, 1, 3)),
            (2, (0, 2, 3)),
        )

    def test_codim3_2_3_7(self):
        assert closed_form_decomposition(normalize((2, 3, 7))).terms == (
            (60, (0, 2, 5, 12)),
            (30, (0, 3, 5, 12)),
            (72, (0, 3, 9, 12)),
            (30, (0, 7, 9, 12)),
            (60, (0, 7, 10, 12)),
        )

    def test_degenerate_1_1(self):
        assert closed_form_decomposition(normalize((1, 1))).terms == ((2, (0, 1, 2)),)

    def test_degenerate_1_1_1(self):
        assert closed_form_decomposition(normalize((1, 1, 1))).terms == (
            (6, (0, 1, 2, 3)),
        )

    def test_palindromic_coefficients(self):
        for degrees in ((2, 3, 7), (1, 4, 6), (2, 2, 5)):
            coeffs = [c for c, _ in closed_form_decomposition(normalize(degrees))]
            assert coeffs == coeffs[::-1]

    def test_unsupported_codim(self):
        with pytest.raises(UnsupportedCodimension):
            closed_form_decomposition(normalize(()))
        with pytest.raises(UnsupportedCodimension):
            closed_form_decomposition(normalize((1, 2, 3, 4)))


class TestVerifyClosedForm:
    def test_greedy_term_order_up_to_10(self):
        # Not sorted: the closed form lists the chain in greedy order.
        for n in (1, 2, 3):
            for degrees in combinations_with_replacement(range(1, 11), n):
                t = CIType(degrees)
                formula = closed_form_decomposition(t)
                assert formula == greedy_decompose(koszul_betti(t)), degrees


class TestCodim4Predicate:
    def test_1_2_4_8_column1(self):
        # Oracle first: the table's iteration-1 cell is in column 1.
        assert observed_first_columns((1, 2, 4, 8)) == (1,)
        assert first_elimination(normalize((1, 2, 4, 8))) == (1,)

    def test_3_4_5_7_column2(self):
        assert observed_first_columns((3, 4, 5, 7)) == (2,)
        assert first_elimination(normalize((3, 4, 5, 7))) == (2,)

    def test_multiple_witness_exists(self):
        witnesses = [
            (a, b, c, d)
            for (a, b, c, d) in combinations(range(1, 21), 4)
            if a * (b + 2 * c + d) == c * (c + d)
        ]
        assert witnesses, "no equality tuple with d <= 20"
        for degrees in witnesses:
            assert first_elimination(CIType(degrees)) == (1, 2)
            table = EliminationTable.of(greedy_decompose(koszul_betti(CIType(degrees))))
            assert sum(1 for it in table.cells.values() if it == 1) >= 2

    def test_agrees_with_tables_up_to_8(self):
        for degrees in combinations(range(1, 9), 4):
            observed = observed_first_columns(degrees)
            assert first_elimination(CIType(degrees)) == observed, degrees
            assert paper_rule(*degrees) == observed, degrees

    def test_paper_rule_up_to_14(self):
        for degrees in combinations(range(1, 15), 4):
            assert first_elimination(CIType(degrees)) == paper_rule(*degrees), degrees

    def test_requires_strict(self):
        with pytest.raises(RequiresStrictDegrees):
            first_elimination(normalize((2, 2, 3, 4)))
        with pytest.raises(RequiresStrictDegrees):
            first_elimination(normalize((1, 1, 2)))
        # Other codimensions get an answer.
        assert first_elimination(normalize((1, 2, 3))) == (1,)


class TestFirstElimination:
    @pytest.mark.parametrize(
        "codim, max_degree", [(1, 14), (2, 14), (3, 14), (4, 14), (5, 10), (6, 10)]
    )
    def test_agrees_with_tables(self, codim, max_degree):
        # The columns greedy clears at iteration 1, outer ones included.
        for degrees in combinations(range(1, max_degree + 1), codim):
            assert first_elimination(CIType(degrees)) == observed_first_columns(degrees), degrees
