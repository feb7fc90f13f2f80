"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with `pytest -s tests/test_acceptance.py` to see them).
All equality checks are exact; there are no tolerances anywhere.
"""

import functools
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement

from bsdecomp import (
    CIType,
    EliminationTable,
    ci_shuffle_decomposition,
    closed_form_decomposition,
    first_elimination,
    greedy_decompose,
    koszul_betti,
    normalize,
    pure,
    quotient_by_regular_element,
    shuffle_product,
    tensor,
)
from bsdecomp.census import run_census
from bsdecomp.cli import build_parser, run as cli_run
from reference import (
    DECOMP_1_2_4_8,
    ELIM_TABLE_1_2_4_8,
    ELIM_TABLE_3_4_5_7,
    ELIM_TABLE_4_5_7_9,
    QUOTIENT_2_3_4_BY_7,
    QUOTIENT_BASE_2_3_4,
    SHUFFLE_0_3_5__0_1_6,
    regularity,
    shuffle_identity_check,
    verify_symmetric,
)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {label}")
                raise
            print(f"PASS criterion {number}: {label}")

        return wrapper

    return decorate


def cli(argv):
    import io

    parser = build_parser()
    args = parser.parse_args(argv)
    out = io.StringIO()
    code = cli_run(args, out)
    return code, out.getvalue()


@criterion(1, "golden chain decomposition of type (1,2,4,8)")
def test_criterion_1_decompose_golden():
    code, text = cli(["decompose", "--degrees", "1,2,4,8"])
    assert code == 0
    lines = text.splitlines()
    expected = [f"{c}\t({','.join(map(str, d))})" for c, d in DECOMP_1_2_4_8]
    assert lines == expected


@criterion(2, "order-free decomposition of type (1,2,4,8): 24 terms of 64")
def test_criterion_2_ci_shuffle_golden():
    t = normalize((1, 2, 4, 8))
    dec = ci_shuffle_decomposition(t)
    assert len(dec) == 24
    assert all(c == 64 for c, _ in dec)
    assert dec.expand() == koszul_betti(t)


@criterion(3, "closed form equals greedy for all codim <= 3 types, e <= 8")
def test_criterion_3_closed_forms_exhaustive():
    counts = {1: 0, 2: 0, 3: 0}
    for n in (1, 2, 3):
        for degrees in combinations_with_replacement(range(1, 9), n):
            t = CIType(degrees)
            formula = closed_form_decomposition(t)
            greedy = greedy_decompose(koszul_betti(t))
            assert sorted(formula.terms) == sorted(greedy.terms), degrees
            counts[n] += 1
    assert counts == {1: 8, 2: 36, 3: 120}


@criterion(4, "golden elimination tables for (3,4,5,7), (1,2,4,8), (4,5,7,9)")
def test_criterion_4_elimination_tables():
    expected = {
        (3, 4, 5, 7): ELIM_TABLE_3_4_5_7,
        (1, 2, 4, 8): ELIM_TABLE_1_2_4_8,
        (4, 5, 7, 9): ELIM_TABLE_4_5_7_9,
    }
    for degrees, grid in expected.items():
        table = EliminationTable.of(greedy_decompose(koszul_betti(CIType(degrees))))
        got = [line.split() for line in table.grid().splitlines()]
        want = [line.split() for line in grid.splitlines()]
        assert got == want, degrees
    table = EliminationTable.of(greedy_decompose(koszul_betti(CIType((4, 5, 7, 9)))))
    assert table.iterations == 8
    counts = Counter(table.cells.values())
    assert {it for it, c in counts.items() if c > 1} == {1, 2, 6, 7, 8}


@criterion(5, "golden shuffle expansion of pi<0,3,5> * pi<0,1,6>")
def test_criterion_5_shuffle_golden():
    dec = shuffle_product([(0, 3, 5), (0, 1, 6)])
    assert dec.terms == SHUFFLE_0_3_5__0_1_6
    assert all(c == 1 for c, _ in dec)
    assert dec.expand() == tensor(pure((0, 3, 5)), pure((0, 1, 6)))


@criterion(6, "quotient of the (2,3,4) decomposition by a degree-7 element")
def test_criterion_6_quotient_golden():
    # The five frozen terms use the sequences forced by exact
    # reconstruction; see reference.QUOTIENT_BASE_2_3_4.
    base = greedy_decompose(koszul_betti(normalize((2, 3, 4))))
    assert base.terms == QUOTIENT_BASE_2_3_4
    dec = quotient_by_regular_element(base, 7)
    assert dec.expand() == koszul_betti(normalize((2, 3, 4, 7)))
    merged = {d: c for c, d in dec}
    for coeff, seq in QUOTIENT_2_3_4_BY_7:
        assert merged[seq] == coeff
    assert sorted(c for c, _ in QUOTIENT_2_3_4_BY_7) == [84, 84, 252, 294, 294]


@criterion(7, "rational shuffle identity equals 1 on 1000 random inputs")
def test_criterion_7_shuffle_identity():
    rng = random.Random(0xB5)
    for _ in range(1000):
        nsets = rng.randint(1, 3)
        sets = [
            tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4)))
            for _ in range(nsets)
        ]
        assert shuffle_identity_check(sets) == 1, sets


@criterion(8, "shuffle expansion equals convolution on 500 random pairs")
def test_criterion_8_shuffle_vs_tensor():
    rng = random.Random(0x52)
    for _ in range(500):
        c = tuple(sorted(rng.sample(range(-6, 13), rng.randint(1, 4))))
        d = tuple(sorted(rng.sample(range(-6, 13), rng.randint(1, 4))))
        dec = shuffle_product([c, d])
        assert dec.expand() == tensor(pure(c), pure(d)), (c, d)


@criterion(9, "palindromic symmetry for all types with n <= 4, e <= 6")
def test_criterion_9_symmetry():
    for n in range(1, 5):
        for degrees in combinations_with_replacement(range(1, 7), n):
            t = CIType(degrees)
            dec = greedy_decompose(koszul_betti(t))
            assert verify_symmetric(dec, regularity(t), t.codim), degrees


@criterion(10, "first-elimination rule agrees with tables; equality branch hit")
def test_criterion_10_codim4_predicate():
    for degrees in combinations(range(1, 9), 4):
        t = CIType(degrees)
        table = EliminationTable.of(greedy_decompose(koszul_betti(t)))
        observed = tuple(sorted({i for (i, _), it in table.cells.items() if it == 1}))
        assert first_elimination(t) == observed, degrees
        assert observed in ((1,), (2,), (1, 2)), degrees
    witnesses = [
        t
        for t in map(CIType, combinations(range(1, 21), 4))
        if first_elimination(t) == (1, 2)
    ]
    assert witnesses, "no equality tuple with d <= 20"
    for t in witnesses:
        table = EliminationTable.of(greedy_decompose(koszul_betti(t)))
        assert sum(1 for it in table.cells.values() if it == 1) >= 2, t.degrees


@criterion(11, "census at codim 4, degrees <= 10: >= 8 single-elimination signatures")
def test_criterion_11_census():
    import time

    start = time.monotonic()
    report = run_census(4, 10, True)
    elapsed = time.monotonic() - start
    assert report.swept == 210
    assert report.no_multiple_signatures >= 8
    assert elapsed < 120


@criterion(12, "exact reconstruction for 200 random types with n <= 5, e <= 7")
def test_criterion_12_reconstruction():
    rng = random.Random(0xC1)
    for _ in range(200):
        n = rng.randint(1, 5)
        degrees = tuple(sorted(rng.randint(1, 7) for _ in range(n)))
        diagram = koszul_betti(CIType(degrees))
        dec = greedy_decompose(diagram)
        assert dec.expand() == diagram, degrees
        assert all(c > 0 for c, _ in dec), degrees
