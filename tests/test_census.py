from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from bsdecomp import CIType, SizeExceeded, first_elimination, greedy_decompose, koszul_betti
from bsdecomp.census import (
    CENSUS_CAP,
    census_records,
    format_report,
    iter_types,
    run_census,
    signature_of,
    tsv_line,
)
from reference import table_signature


def tsv_output(codim, max_degree, strict):
    return [tsv_line(t, sig) for t, sig in census_records(codim, max_degree, strict)]


class TestSignature:
    def test_3_4_5_7(self):
        sig = signature_of(CIType((3, 4, 5, 7)))
        assert sig.steps[0] == (2,)
        assert sig.steps[1] == (1,)
        assert sig.iterations == 12
        assert not sig.has_multiple_elimination()

    def test_1_2_4_8(self):
        sig = signature_of(CIType((1, 2, 4, 8)))
        assert sig.steps[0] == (1,)
        assert sig.steps[1] == (2,)
        assert sig.iterations == 12
        assert not sig.has_multiple_elimination()

    def test_4_5_7_9_multiple(self):
        sig = signature_of(CIType((4, 5, 7, 9)))
        assert sig.iterations == 8
        assert sig.has_multiple_elimination()
        multi = {it for it, cols in enumerate(sig.steps, 1) if len(cols) > 1}
        # The final step drops the trivial outer columns but stays multiple.
        assert multi == {1, 2, 6, 7, 8}

    def test_final_step_drops_outer_columns(self):
        sig = signature_of(CIType((1, 2, 4, 8)))
        last_cols = sig.steps[-1]
        assert len(sig.steps) == 12
        assert 0 not in last_cols
        assert 4 not in last_cols

    @pytest.mark.parametrize("codim, max_degree, strict", [
        (4, 10, True), (5, 12, True), (4, 8, False), (1, 6, False), (2, 6, False), (3, 6, False),
    ])
    def test_chain_matches_table(self, codim, max_degree, strict):
        # The signature read off the chain equals the one read from the table.
        source = combinations if strict else combinations_with_replacement
        for degrees in source(range(1, max_degree + 1), codim):
            t = CIType(degrees)
            assert signature_of(t) == table_signature(t), degrees


class TestIterTypes:
    def test_strict_counting(self):
        assert [t.degrees for t in iter_types(4, 4, True)] == [(1, 2, 3, 4)]

    def test_weak_includes_repeats(self):
        degrees = [t.degrees for t in iter_types(4, 4, False)]
        assert (1, 1, 1, 1) in degrees
        assert len(degrees) == 35  # C(4+4-1, 4)


class TestRunCensus:
    def test_codim4_strict_10(self):
        report = run_census(4, 10, True)
        assert report.swept == 210
        assert report.no_multiple_signatures >= 8
        assert report.predicate_checked == 210
        assert report.predicate_agreed == 210

    def test_witness_lists_nonempty(self):
        report = run_census(4, 7, True)
        assert report.signatures
        for witnesses in report.signatures.values():
            assert witnesses

    def test_multiple_flag_matches_predicate(self):
        report = run_census(4, 8, True)
        for sig, witnesses in report.signatures.items():
            for degrees in witnesses:
                assert first_elimination(CIType(degrees)) == sig.first_columns()

    def test_reconstruction_spot_check(self):
        # Every record of a strict codim-4 and a weak codim-5 sweep.
        records = [*census_records(4, 10, True), *census_records(5, 6, False)]
        assert len(records) == 210 + 252
        for t, sig in records:
            decomposition = greedy_decompose(koszul_betti(t))
            assert decomposition.expand() == koszul_betti(t), t.degrees
            assert len(decomposition) == sig.iterations, t.degrees

    def test_bench_census_sizes(self):
        # The benchmark's census inputs: greedy iterations and input cells
        # over strict codim 4 with degrees <= 10 and codim 5 with <= 12.
        # Every greedy coefficient on them is an integer.  That is observed,
        # not proved: a counterexample would be a finding, not a kernel bug.
        types = [*iter_types(4, 10, True), *iter_types(5, 12, True)]
        assert len(types) == 1002
        diagrams = [koszul_betti(t) for t in types]
        coefficients = [c for a in diagrams for c, _ in greedy_decompose(a)]
        assert len(coefficients) == 22211
        assert all(c.denominator == 1 for c in coefficients)
        assert sum(len(a) for a in diagrams) == 27134

    def test_codim5_small(self):
        report = run_census(5, 6, True)
        assert report.swept == 6
        assert report.signatures

    def test_rejects_bad_codim(self):
        with pytest.raises(ValueError):
            run_census(3, 8, True)

    def test_rejects_too_small_strict_bound(self):
        with pytest.raises(ValueError):
            run_census(4, 3, True)
        with pytest.raises(ValueError):
            tsv_output(4, 3, True)

    @pytest.mark.parametrize("codim, max_degree, strict, count", [
        (4, 9, True, comb(9, 4)),
        (5, 6, False, comb(10, 5)),
    ])
    def test_tuple_count(self, codim, max_degree, strict, count):
        # The count the cap is checked against is the count swept.
        assert len(list(census_records(codim, max_degree, strict))) == count

    @pytest.mark.parametrize("codim, max_degree, strict", [
        (4, 40, True),  # C(40, 4) = 91,390; C(41, 4) = 101,270
        (4, 37, False),  # C(40, 4) = 91,390; C(41, 4) = 101,270
        (5, 28, True),  # C(28, 5) = 98,280; C(29, 5) = 118,755
    ])
    def test_tuple_cap(self, codim, max_degree, strict):
        assert CENSUS_CAP == 10**5
        census_records(codim, max_degree, strict)  # under the cap: no record made yet
        count = comb(max_degree + 1, codim) if strict else comb(max_degree + codim, codim)
        # Checked at the call, before any record is made.
        message = f"^{count} tuples exceed the cap of {CENSUS_CAP}$"
        with pytest.raises(SizeExceeded, match=message):
            census_records(codim, max_degree + 1, strict)
        with pytest.raises(SizeExceeded, match=message):
            run_census(codim, max_degree + 1, strict)

    def test_huge_bound_is_refused(self):
        with pytest.raises(SizeExceeded, match=f"exceed the cap of {CENSUS_CAP}$"):
            census_records(5, 10**9, False)

    def test_determinism(self):
        a = run_census(4, 8, True)
        b = run_census(4, 8, True)
        assert a.signature_totals == b.signature_totals


class TestOutput:
    def test_tsv_shape(self):
        lines = tsv_output(4, 5, True)
        assert len(lines) == 5
        fields = lines[0].split("\t")
        assert len(fields) == 4
        assert fields[0] == "1,2,3,4"
        assert fields[3] in ("yes", "no")

    @pytest.mark.parametrize("codim, max_degree, strict", [(4, 8, True), (5, 7, False)])
    def test_tsv_rows_match_report(self, codim, max_degree, strict):
        report = run_census(codim, max_degree, strict)
        rows = [line.split("\t") for line in tsv_output(codim, max_degree, strict)]
        assert len(rows) == report.swept
        assert {row[2] for row in rows} == {sig.format() for sig in report.signatures}

    def test_report_text(self):
        report = run_census(4, 6, True)
        text = format_report(report)
        assert "tuples swept: 15" in text
        assert "predicate agreement" in text
