"""Known decompositions and elimination tables for specific complete
intersections, as printed in the paper, and the checks of the package
against them.  `test_reference.py` runs every check; other tests import
the values and the oracles `verify_symmetric` and `table_signature`.
"""

from fractions import Fraction
from math import prod

from bsdecomp import (
    CIType,
    Diagram,
    EliminationSignature,
    EliminationTable,
    PureSum,
    ci_shuffle_decomposition,
    closed_form_decomposition,
    greedy_decompose,
    koszul_betti,
    pure,
    quotient_by_regular_element,
    shuffle_product,
    shuffles,
    tensor,
)

# Greedy chain decomposition of the complete intersection of type (1,2,4,8).
DECOMP_1_2_4_8 = (
    (168, (0, 1, 3, 7, 15)),
    (60, (0, 2, 3, 7, 15)),
    (210, (0, 2, 5, 7, 15)),
    (30, (0, 4, 5, 7, 15)),
    (60, (0, 4, 6, 7, 15)),
    (240, (0, 4, 6, 11, 15)),
    (240, (0, 4, 9, 11, 15)),
    (60, (0, 8, 9, 11, 15)),
    (30, (0, 8, 10, 11, 15)),
    (210, (0, 8, 10, 13, 15)),
    (60, (0, 8, 12, 13, 15)),
    (168, (0, 8, 12, 14, 15)),
)

# Elimination tables in grid layout: row r, column i holds the iteration
# at which entry (i, r + i) was cleared; "." marks absent entries.
ELIM_TABLE_3_4_5_7 = """\
12  .  .  .  .
 .  .  .  .  .
 .  2  .  .  .
 .  5  .  .  .
 .  8  .  .  .
 .  .  1  .  .
 . 12  3  .  .
 .  .  6  .  .
 .  .  9  .  .
 .  . 11  4  .
 .  . 12  .  .
 .  .  .  7  .
 .  .  . 10  .
 .  .  . 12  .
 .  .  .  .  .
 .  .  .  . 12"""

ELIM_TABLE_1_2_4_8 = """\
12  1  .  .  .
 .  3  2  .  .
 .  .  .  .  .
 .  7  4  .  .
 .  .  6  5  .
 .  .  .  .  .
 .  .  .  .  .
 . 12  8  .  .
 .  . 10  9  .
 .  .  .  .  .
 .  . 12 11  .
 .  .  . 12 12"""

ELIM_TABLE_4_5_7_9 = """\
8 . . . .
. . . . .
. . . . .
. 1 . . .
. 3 . . .
. . . . .
. 6 . . .
. . 1 . .
. 8 . . .
. . 2 . .
. . 4 . .
. . 6 . .
. . 7 . .
. . . 2 .
. . 8 . .
. . . 5 .
. . . . .
. . . 7 .
. . . 8 .
. . . . .
. . . . .
. . . . 8"""

# Shuffle expansion of pi<0,3,5> * pi<0,1,6>, in enumeration order.
SHUFFLE_0_3_5__0_1_6 = (
    (1, (0, 3, 5, 6, 11)),
    (1, (0, 3, 4, 6, 11)),
    (1, (0, 3, 4, 9, 11)),
    (1, (0, 1, 4, 6, 11)),
    (1, (0, 1, 4, 9, 11)),
    (1, (0, 1, 6, 9, 11)),
)

# Chain decomposition of type (2,3,4), the base of the quotient example.
# (Fourth sequence is (0,4,6,9): forced by the codim-3 closed form and by
# exact reconstruction of the Koszul diagram.)
QUOTIENT_BASE_2_3_4 = (
    (42, (0, 2, 5, 9)),
    (12, (0, 3, 5, 9)),
    (36, (0, 3, 6, 9)),
    (12, (0, 4, 6, 9)),
    (42, (0, 4, 7, 9)),
)

# Terms that must appear after quotienting by a degree-7 regular element.
QUOTIENT_2_3_4_BY_7 = (
    (294, (0, 7, 9, 12, 16)),
    (84, (0, 7, 10, 12, 16)),
    (252, (0, 7, 10, 13, 16)),
    (84, (0, 7, 11, 13, 16)),
    (294, (0, 7, 11, 14, 16)),
)

# Closed-form codimension-3 decomposition of type (2,3,7).
CLOSED_FORM_2_3_7 = (
    (60, (0, 2, 5, 12)),
    (30, (0, 3, 5, 12)),
    (72, (0, 3, 9, 12)),
    (30, (0, 7, 9, 12)),
    (60, (0, 7, 10, 12)),
)


def prod_of(s):
    """Product of the running partial sums s_1 (s_1+s_2) ... (s_1+...+s_r)."""
    total = 0
    result = 1
    for x in s:
        total += x
        result *= total
    return Fraction(result)


def shuffle_identity_check(sets):
    """Sum over shuffles of prod(Prod(A_i)) / Prod(sigma); always 1."""
    sets = [tuple(s) for s in sets]
    numerator = prod(prod_of(s) for s in sets)
    return sum(
        (numerator / prod_of(s) for s in shuffles(sets)),
        Fraction(0),
    )


def verify_symmetric(decomposition, r, n):
    """Check the palindromic symmetry of a chain decomposition.

    For a self-dual (Gorenstein) diagram of width n and regularity r the
    terms read the same from both ends: the k-th term from the end has
    the coefficient of the k-th term and its degree sequence mirrored in
    the top degree r + n, (r + n - d_n, ..., r + n - d_0).  Every d_k
    must have n + 1 entries.  Returns False on any asymmetry.
    """
    terms = decomposition.terms
    shift = r + n
    m = len(terms)
    for k in range((m + 1) // 2):
        a_k, d_k = terms[k]
        a_mirror, d_mirror = terms[m - 1 - k]
        if len(d_k) != n + 1 or a_k != a_mirror:
            return False
        if d_mirror != tuple(shift - x for x in reversed(d_k)):
            return False
    return True


def regularity(t):
    """Regularity sum(e_i - 1) of a complete intersection of type t."""
    return sum(e - 1 for e in t.degrees)


def table_signature(t):
    """Elimination signature of type t read from its elimination table: the
    columns of the cells each iteration clears, the last without 0 and codim."""
    table = EliminationTable.of(greedy_decompose(koszul_betti(t)))
    steps = [set() for _ in range(table.iterations)]
    for (i, _), it in table.cells.items():
        steps[it - 1].add(i)
    steps[-1] -= {0, t.codim}
    return EliminationSignature(steps=tuple(tuple(sorted(cols)) for cols in steps))


def _grid_cells(text):
    return [line.split() for line in text.splitlines()]


def _check_decomp_1_2_4_8():
    return greedy_decompose(koszul_betti(CIType((1, 2, 4, 8)))).terms == DECOMP_1_2_4_8


def _check_elimination_tables():
    expected = {
        (3, 4, 5, 7): ELIM_TABLE_3_4_5_7,
        (1, 2, 4, 8): ELIM_TABLE_1_2_4_8,
        (4, 5, 7, 9): ELIM_TABLE_4_5_7_9,
    }
    for degrees, grid in expected.items():
        table = EliminationTable.of(greedy_decompose(koszul_betti(CIType(degrees))))
        if _grid_cells(table.grid()) != _grid_cells(grid):
            return False
    return True


def _check_ci_shuffle_1_2_4_8():
    t = CIType((1, 2, 4, 8))
    dec = ci_shuffle_decomposition(t)
    return (
        len(dec) == 24
        and all(c == 64 for c, _ in dec)
        and dec.expand() == koszul_betti(t)
    )


def _check_shuffle_example():
    dec = shuffle_product([(0, 3, 5), (0, 1, 6)])
    product = tensor(pure((0, 3, 5)), pure((0, 1, 6)))
    return dec.terms == SHUFFLE_0_3_5__0_1_6 and dec.expand() == product


def _check_quotient_example():
    dec = quotient_by_regular_element(QUOTIENT_BASE_2_3_4, 7)
    terms = dict((d, c) for c, d in dec)
    printed = all(terms.get(d) == c for c, d in QUOTIENT_2_3_4_BY_7)
    return printed and dec.expand() == koszul_betti(CIType((2, 3, 4, 7)))


def _check_closed_form_2_3_7():
    return closed_form_decomposition(CIType((2, 3, 7))).terms == CLOSED_FORM_2_3_7


def _check_shuffle_identity():
    samples = [
        [(3, 2), (1, 5)],
        [(4,)],
        [(1, 2, 4, 8), (2, 2)],
        [(1,), (2,), (3,)],
    ]
    return all(shuffle_identity_check(s) == 1 for s in samples)


def _check_symmetry():
    for degrees in ((1, 2, 4, 8), (2, 3, 7)):
        t = CIType(degrees)
        if not verify_symmetric(greedy_decompose(koszul_betti(t)), regularity(t), t.codim):
            return False
    return True


def _check_pure_example():
    scaled = PureSum(((24, (0, 2, 3, 4)),)).expand()
    expected = Diagram({(0, 0): 1, (1, 2): 6, (2, 3): 8, (3, 4): 3})
    return scaled == expected and pure((0, 2, 3, 4))[(0, 0)] == Fraction(1, 24)


CHECKS = (
    ("chain decomposition of type (1,2,4,8)", _check_decomp_1_2_4_8),
    ("elimination tables for (3,4,5,7), (1,2,4,8), (4,5,7,9)", _check_elimination_tables),
    ("order-free decomposition of type (1,2,4,8)", _check_ci_shuffle_1_2_4_8),
    ("shuffle expansion of pi<0,3,5> * pi<0,1,6>", _check_shuffle_example),
    ("quotient of type (2,3,4) by a degree-7 element", _check_quotient_example),
    ("closed form for type (2,3,7)", _check_closed_form_2_3_7),
    ("shuffle rational identity samples", _check_shuffle_identity),
    ("palindromic symmetry of chain decompositions", _check_symmetry),
    ("normalized pure diagram on (0,2,3,4)", _check_pure_example),
)

