"""Value semantics of the package's record classes: equality, hashing,
repr text and immutability, as callers see them."""

import copy
import pickle
from fractions import Fraction

import pytest

from bsdecomp import (
    CensusReport,
    CIType,
    EliminationSignature,
    EliminationTable,
    PureSum,
    greedy_decompose,
    koszul_betti,
)
from bsdecomp.census import run_census, signature_of
from bsdecomp.errors import NonPositiveDegree, NotWeaklyIncreasing

TERMS = ((Fraction(1, 2), (0, 1)), (3, (0, 2)))


def frozen_records():
    """(record, one field name) for each immutable class."""
    return [
        (PureSum(TERMS), "terms"),
        (EliminationTable(cells={(0, 0): 1}, iterations=1), "cells"),
        (CIType((2, 3)), "degrees"),
        (EliminationSignature(steps=((1,), (2, 3))), "steps"),
    ]


class TestEquality:
    def test_equal_by_value(self):
        assert PureSum(TERMS) == PureSum(tuple(TERMS))
        assert PureSum(TERMS) != PureSum(TERMS[:1])
        assert EliminationTable({(0, 0): 1}, 1) == EliminationTable(cells={(0, 0): 1}, iterations=1)
        assert EliminationTable({(0, 0): 1}, 1) != EliminationTable({(0, 0): 1}, 2)
        assert CIType((2, 3)) == CIType([2, 3])
        assert CIType((2, 3)) != CIType((2, 4))
        assert EliminationSignature(((1,),)) == EliminationSignature(steps=((1,),))
        assert EliminationSignature(((1,),)) != EliminationSignature(((2,),))
        assert CensusReport(4, 10, True) == CensusReport(codim=4, max_degree=10, strict=True)
        assert CensusReport(4, 10, True) != CensusReport(4, 10, False)

    def test_other_types_are_not_equal(self):
        assert PureSum(()) != ()
        assert CIType((2, 3)) != (2, 3)
        assert EliminationSignature(()) != PureSum(())
        assert PureSum(()).__eq__(()) is NotImplemented

    def test_results_compare_by_value(self):
        t = CIType((2, 3, 4))
        assert greedy_decompose(koszul_betti(t)) == greedy_decompose(koszul_betti(t))
        assert EliminationTable.of(greedy_decompose(koszul_betti(t))) == EliminationTable.of(
            greedy_decompose(koszul_betti(t))
        )
        assert signature_of(t) == signature_of((4, 3, 2))
        assert run_census(4, 6, True) == run_census(4, 6, True)


class TestHash:
    def test_hashable_classes(self):
        assert hash(PureSum(TERMS)) == hash(PureSum(tuple(TERMS)))
        assert hash(CIType((2, 3))) == hash(CIType([2, 3]))
        assert hash(EliminationSignature(((1,),))) == hash(EliminationSignature(steps=((1,),)))
        assert len({signature_of((3, 4, 5, 7)), signature_of((3, 4, 5, 7))}) == 1

    def test_unhashable_classes(self):
        with pytest.raises(TypeError):
            hash(EliminationTable(cells={(0, 0): 1}, iterations=1))
        with pytest.raises(TypeError):
            hash(CensusReport(4, 10, True))


class TestRepr:
    def test_repr_text(self):
        assert repr(PureSum(TERMS)) == "PureSum(terms=((Fraction(1, 2), (0, 1)), (3, (0, 2))))"
        assert repr(EliminationTable(cells={(0, 0): 1}, iterations=1)) == (
            "EliminationTable(cells={(0, 0): 1}, iterations=1)"
        )
        assert repr(CIType((2, 3))) == "CIType(degrees=(2, 3))"
        assert repr(EliminationSignature(steps=((1,), (2, 3)))) == (
            "EliminationSignature(steps=((1,), (2, 3)))"
        )
        assert repr(CensusReport(codim=4, max_degree=10, strict=True)) == (
            "CensusReport(codim=4, max_degree=10, strict=True, swept=0, signatures={}, "
            "signature_totals={}, no_multiple_signatures=0, multiple_tuples=0, "
            "predicate_checked=0, predicate_agreed=0)"
        )


class TestCopy:
    def test_pickle_and_copy(self):
        report = run_census(4, 6, True)
        for record in [r for r, _ in frozen_records()] + [report]:
            assert pickle.loads(pickle.dumps(record)) == record
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record
        clone = copy.deepcopy(report)
        clone.signatures.clear()
        assert report.signatures


class TestMutability:
    @pytest.mark.parametrize("index", range(4))
    def test_frozen_fields(self, index):
        record, name = frozen_records()[index]
        before = repr(record)
        with pytest.raises(AttributeError):
            setattr(record, name, ())
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert repr(record) == before

    def test_census_report_is_mutable(self):
        a = CensusReport(4, 10, True)
        b = CensusReport(4, 10, True)
        a.swept += 1
        a.signatures[EliminationSignature(())] = [(1, 2, 3, 4)]
        assert (a.swept, b.swept, b.signatures) == (1, 0, {})
        assert a != b

    def test_citype_validation(self):
        with pytest.raises(NonPositiveDegree, match=r"degrees must be >= 1, got \(0, 2\)"):
            CIType((0, 2))
        with pytest.raises(
            NotWeaklyIncreasing,
            match=r"degrees must be weakly increasing, got \(3, 2\); use normalize\(\)",
        ):
            CIType((3, 2))
        assert CIType([2, 3]).degrees == (2, 3)
