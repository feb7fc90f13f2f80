import random
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from bsdecomp import (
    CIType,
    Diagram,
    EliminationTable,
    EmptyColumn,
    NotADegreeSequence,
    NotInCone,
    PureSum,
    greedy_decompose,
    koszul_betti,
    min_degree_sequence,
    normalize,
    pure,
)
from reference import (
    DECOMP_1_2_4_8,
    ELIM_TABLE_1_2_4_8,
    ELIM_TABLE_3_4_5_7,
    ELIM_TABLE_4_5_7_9,
    regularity,
    verify_symmetric,
)


def grid_cells(text):
    return [line.split() for line in text.splitlines()]


FractionTrace = namedtuple("FractionTrace", "decomposition table")


def fraction_greedy(a):
    """Reference: the greedy loop in Fraction arithmetic, one pure(d) per step."""
    if not a:
        raise NotInCone("cannot decompose the zero diagram")
    if any(v < 0 for _, v in a.items()):
        raise NotInCone("diagram has negative entries")
    width = a.width
    residual = dict(a.items())
    top = sum(i == width for i, _ in residual)
    terms = []
    cells = {}
    iteration = 0

    def stuck(message):
        return NotInCone(message, partial=PureSum(tuple(terms)), residual=Diagram._of(residual))

    while residual:
        iteration += 1
        if not top:
            raise stuck(f"column {width} emptied while lower columns remain")
        try:
            d = min_degree_sequence(residual)
        except EmptyColumn as exc:
            raise stuck(str(exc)) from exc
        except NotADegreeSequence as exc:
            raise stuck(f"column minima are not strictly increasing: {exc}") from exc
        p = pure(d)
        q = min(residual[key] / p[key] for key in enumerate(d))
        terms.append((q, d))
        for key in enumerate(d):
            value = residual[key] - q * p[key]
            if value:
                residual[key] = value
            else:
                del residual[key]
                cells[key] = iteration
                top -= key[0] == width
    return FractionTrace(
        decomposition=PureSum(tuple(terms)),
        table=EliminationTable(cells=cells, iterations=iteration),
    )


def outcome(greedy, a):
    """Everything a caller can see of a run, cell order included."""
    try:
        trace = greedy(a)
    except NotInCone as exc:
        residual = exc.residual
        return str(exc), exc.partial and exc.partial.terms, residual, residual and list(residual)
    if isinstance(trace, PureSum):  # the kernel: its table is read off the chain
        trace = FractionTrace(trace, EliminationTable.of(trace))
    terms = trace.decomposition.terms
    assert all(type(q) is Fraction for q, _ in terms)
    return terms, list(trace.table.cells.items()), trace.table.iterations


@st.composite
def perturbed_chains(draw):
    """A positive rational sum of pure diagrams on an increasing chain,
    with unlike denominators, and one cell maybe moved off it."""
    n = draw(st.integers(1, 5))
    d = sorted(draw(st.sets(st.integers(0, 12), min_size=n + 1, max_size=n + 1)))
    chain = [tuple(d)]
    for i in draw(st.lists(st.integers(0, n), max_size=12)):
        if i == n or d[i] + 1 < d[i + 1]:
            d[i] += 1
            chain.append(tuple(d))
    coeff = st.builds(Fraction, st.integers(1, 30), st.integers(1, 12))
    a = PureSum(tuple((draw(coeff), s) for s in chain)).expand()
    if draw(st.booleans()):
        cell = draw(st.sampled_from(sorted(a)) | st.tuples(st.integers(0, n), st.integers(0, 20)))
        value = draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 40)))
        a = Diagram([*a.items(), (cell, value)])
    return a


class TestFractionReference:
    """The integer-residual kernel against the Fraction loop it replaced."""

    @pytest.mark.parametrize("n, max_degree", [(1, 8), (2, 8), (3, 8), (4, 8), (5, 6)])
    def test_weak_koszul_types(self, n, max_degree):
        for degrees in combinations_with_replacement(range(1, max_degree + 1), n):
            a = koszul_betti(CIType(degrees))
            assert outcome(greedy_decompose, a) == outcome(fraction_greedy, a), degrees

    @pytest.mark.parametrize("n, max_degree", [(4, 10), (5, 12)])
    def test_strict_census_types(self, n, max_degree):
        for degrees in combinations(range(1, max_degree + 1), n):
            a = koszul_betti(CIType(degrees))
            assert outcome(greedy_decompose, a) == outcome(fraction_greedy, a), degrees

    @settings(max_examples=300, deadline=None)
    @given(a=perturbed_chains())
    def test_perturbed_chain_sums(self, a):
        assert outcome(greedy_decompose, a) == outcome(fraction_greedy, a)

    @pytest.mark.parametrize("a", [
        Diagram({(0, 0): 1, (1, 1): -1}),
        Diagram({(0, 1): 1, (1, 1): 1}),
        Diagram({(0, 0): 1, (2, 3): 1}),
        Diagram([*pure((0, 1, 3)).items(), ((1, 2), Fraction(1, 7))]),
        Diagram([
            *PureSum(((Fraction(3, 4), (0, 2, 5)),)).expand().items(), ((2, 9), Fraction(1, 6)),
        ]),
    ])
    def test_not_in_cone(self, a):
        expected = outcome(fraction_greedy, a)
        assert isinstance(expected[0], str)
        assert outcome(greedy_decompose, a) == expected


class TestGreedyDecompose:
    def test_koszul_1_2(self):
        dec = greedy_decompose(koszul_betti(normalize((1, 2))))
        assert dec.terms == ((2, (0, 1, 3)), (2, (0, 2, 3)))

    def test_koszul_1_2_4_8(self):
        dec = greedy_decompose(koszul_betti(normalize((1, 2, 4, 8))))
        assert dec.terms == DECOMP_1_2_4_8

    def test_pure_input_single_term(self):
        dec = greedy_decompose(PureSum(((5, (0, 2, 3, 4)),)).expand())
        assert dec.terms == ((5, (0, 2, 3, 4)),)
        assert EliminationTable.of(dec).iterations == 1

    def test_koszul_2_3_7(self):
        dec = greedy_decompose(koszul_betti(normalize((2, 3, 7))))
        assert dec.terms == (
            (60, (0, 2, 5, 12)),
            (30, (0, 3, 5, 12)),
            (72, (0, 3, 9, 12)),
            (30, (0, 7, 9, 12)),
            (60, (0, 7, 10, 12)),
        )

    def test_reconstruction_random_koszul(self):
        rng = random.Random(20260823)
        for _ in range(200):
            n = rng.randint(1, 5)
            degrees = sorted(rng.randint(1, 7) for _ in range(n))
            diagram = koszul_betti(CIType(tuple(degrees)))
            dec = greedy_decompose(diagram)
            assert dec.expand() == diagram
            assert all(c > 0 for c, _ in dec)

    def test_chain_property(self):
        # Consecutive degree sequences strictly increase componentwise, over
        # the range of test_every_cell_cleared_once.
        for degrees in combinations(range(1, 11), 4):
            seqs = [d for _, d in greedy_decompose(koszul_betti(CIType(degrees)))]
            for a, b in zip(seqs, seqs[1:]):
                assert len(a) == len(b) and a != b, degrees
                assert all(x <= y for x, y in zip(a, b)), degrees

    def test_progress_bound(self):
        diagram = koszul_betti(normalize((2, 3, 4, 5)))
        dec = greedy_decompose(diagram)
        assert EliminationTable.of(dec).iterations <= len(diagram)

    def test_every_cell_cleared_once(self):
        # Strict codim-4 types up to 10, which include the paper's
        # (1,2,4,8), (3,4,5,7) and (4,5,7,9).
        for degrees in combinations(range(1, 11), 4):
            diagram = koszul_betti(CIType(degrees))
            dec = greedy_decompose(diagram)
            table = EliminationTable.of(dec)
            assert set(table.cells) == set(diagram)
            assert table.iterations <= len(diagram)
            assert dec.expand() == diagram
            # Every iteration clears at least one cell, and adds one term.
            assert set(table.cells.values()) == set(range(1, table.iterations + 1))
            assert table.iterations == len(dec)

    @pytest.mark.parametrize("k", [2, 3])
    def test_scale_invariance(self, k):
        # Scaling a type by k scales the diagram's degrees by k, so each
        # term (q, d) becomes (k^n q, k d).
        for n in range(1, 5):
            for degrees in combinations_with_replacement(range(1, 7), n):
                terms = greedy_decompose(koszul_betti(CIType(degrees))).terms
                scaled = greedy_decompose(koszul_betti(CIType(tuple(k * e for e in degrees))))
                assert scaled.terms == tuple(
                    (k**n * q, tuple(k * x for x in d)) for q, d in terms
                ), degrees

    def test_determinism(self):
        diagram = koszul_betti(normalize((4, 5, 7, 9)))
        assert greedy_decompose(diagram) == greedy_decompose(diagram)

    def test_coefficients_are_fractions(self):
        dec = greedy_decompose(pure((0, 1, 3)))
        (coeff, _), = dec.terms
        assert isinstance(coeff, Fraction)


class TestNotInCone:
    def test_empty_diagram(self):
        with pytest.raises(NotInCone):
            greedy_decompose(Diagram())

    def test_negative_entries(self):
        with pytest.raises(NotInCone):
            greedy_decompose(Diagram({(0, 0): 1, (1, 1): -1}))

    def test_non_increasing_minima(self):
        with pytest.raises(NotInCone):
            greedy_decompose(Diagram({(0, 1): 1, (1, 1): 1}))

    def test_partial_trace_in_payload(self):
        # pi<0,1,3> plus a stray entry: the first subtraction clears the
        # pure part, leaving a residual whose column 0 is empty.
        bad = Diagram([*pure((0, 1, 3)).items(), ((1, 2), Fraction(1, 7))])
        with pytest.raises(NotInCone) as exc:
            greedy_decompose(bad)
        assert isinstance(exc.value.partial, PureSum)
        assert exc.value.partial.terms == ((1, (0, 1, 3)),)
        assert exc.value.residual is not None
        assert exc.value.residual
        removed = PureSum(tuple((-q, d) for q, d in exc.value.partial)).expand()
        assert exc.value.residual == Diagram([*bad.items(), *removed.items()])

    def test_empty_middle_column(self):
        with pytest.raises(NotInCone):
            greedy_decompose(Diagram({(0, 0): 1, (2, 3): 1}))


class TestEliminationTable:
    def test_table_1_2_4_8(self):
        table = EliminationTable.of(greedy_decompose(koszul_betti(normalize((1, 2, 4, 8)))))
        assert grid_cells(table.grid()) == grid_cells(ELIM_TABLE_1_2_4_8)

    def test_table_3_4_5_7(self):
        table = EliminationTable.of(greedy_decompose(koszul_betti(normalize((3, 4, 5, 7)))))
        assert grid_cells(table.grid()) == grid_cells(ELIM_TABLE_3_4_5_7)
        first = [key for key, it in table.cells.items() if it == 1]
        assert first == [(2, 7)]

    def test_table_4_5_7_9(self):
        table = EliminationTable.of(greedy_decompose(koszul_betti(normalize((4, 5, 7, 9)))))
        assert grid_cells(table.grid()) == grid_cells(ELIM_TABLE_4_5_7_9)
        assert table.iterations == 8
        counts = Counter(table.cells.values())
        assert {it for it, c in counts.items() if c > 1} == {1, 2, 6, 7, 8}

    def test_pure_diagram_all_ones(self):
        table = EliminationTable.of(greedy_decompose(pure((0, 3, 5, 9))))
        assert set(table.cells.values()) == {1}
        assert table.iterations == 1

    def test_support_and_range(self):
        diagram = koszul_betti(normalize((2, 3, 5)))
        table = EliminationTable.of(greedy_decompose(diagram))
        assert set(table.cells) == set(diagram)
        values = set(table.cells.values())
        assert min(values) >= 1
        assert table.iterations in values
        assert max(values) == table.iterations


class TestSymmetry:
    def test_koszul_1_2_4_8(self):
        t = normalize((1, 2, 4, 8))
        dec = greedy_decompose(koszul_betti(t))
        assert verify_symmetric(dec, regularity(t), t.codim)

    def test_koszul_2_3_7(self):
        t = normalize((2, 3, 7))
        dec = greedy_decompose(koszul_betti(t))
        assert verify_symmetric(dec, regularity(t), t.codim)

    def test_single_pure_term(self):
        dec = greedy_decompose(pure((0, 1, 2)))
        assert verify_symmetric(dec, 0, 2)

    def test_asymmetric_input_returns_false(self):
        # A non-Gorenstein cone element: unequal mirror coefficients.
        diagram = PureSum(((2, (0, 1, 3)), (5, (0, 2, 3)))).expand()
        dec = greedy_decompose(diagram)
        assert not verify_symmetric(dec, 1, 2)

    def test_wrong_width_returns_false(self):
        # r + n is kept, so every mirror sequence matches, but the terms
        # have 5 entries, not n + 1.
        t = normalize((1, 2, 4, 8))
        dec = greedy_decompose(koszul_betti(t))
        top = regularity(t) + t.codim
        for n in (3, 5):
            assert not verify_symmetric(dec, top - n, n)

    def test_all_small_koszul(self):
        # Codim 5 goes beyond the acceptance suite's n <= 4.
        for n in range(1, 6):
            for degrees in combinations_with_replacement(range(1, 7), n):
                t = CIType(degrees)
                dec = greedy_decompose(koszul_betti(t))
                assert verify_symmetric(dec, regularity(t), t.codim)
