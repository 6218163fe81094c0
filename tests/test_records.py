"""Semantics of the record types: the immutable ones compare and hash by
value and refuse assignment, the mutable ones own their lists, and no
record type carries a mutable default."""

from fractions import Fraction

import pytest

from bianchi_lefschetz.bounds import BoundReport, cusp_lower_bound
from bianchi_lefschetz.eisenstein import (LevelOneTraces, SczechOperator, SczechTrace,
                                          level_one_sigma_traces, sczech_trace)
from bianchi_lefschetz.finitering import CensusReport, FiniteRing, fixed_coset_report
from bianchi_lefschetz.lefschetz import Level, VariantRecord, make_level
from bianchi_lefschetz.quadfield import QuadField, make_field
from bianchi_lefschetz.verify import SuiteResult

F7 = make_field(-7)
F2 = make_field(-2)

FROZEN = {
    QuadField: lambda: make_field(-7),
    Level: lambda: make_level(F7, 5),
    LevelOneTraces: lambda: level_one_sigma_traces(F7, 0),
    SczechTrace: lambda: sczech_trace(F2, 3),
    CensusReport: lambda: fixed_coset_report(FiniteRing(F7, 3), "sigma"),
    BoundReport: lambda: cusp_lower_bound(F2, 5, 0),
}
MUTABLE = (SczechOperator, VariantRecord, SuiteResult)


def test_fields_compare_and_hash_by_value():
    a, b = make_field(-7), make_field(-7)
    assert a == b and hash(a) == hash(b)
    assert a != make_field(-11)
    assert str(a) == "Q(sqrt(-7))"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment(cls):
    rec = FROZEN[cls]()
    assert type(rec) is cls
    name = cls._fields[0]
    before = getattr(rec, name)
    with pytest.raises(AttributeError):
        setattr(rec, name, None)
    assert getattr(rec, name) == before


def test_mutable_records_own_their_lists():
    a, b = VariantRecord(), VariantRecord()
    for name in ("integrality_failures", "parity_failures_even", "parity_failures_odd",
                 "anchor_failures"):
        getattr(a, name).append(name)
        assert getattr(b, name) == []
    a, b = SuiteResult("a"), SuiteResult("b")
    a.check(False, "broken")
    assert b.lines == [] and b.failures == 0


def test_sczech_operator_coerces_its_gram_to_ints():
    rows = [[True, 0, 0, 0], [0, 2.0, 0, 0], [0, 0, Fraction(4), 0], [0, 0, 0, -1]]
    op = SczechOperator(3, rows)                    # det -8, a unit mod 3
    assert op.gram == ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, -1))
    assert all(type(a) is int for row in op.gram for a in row)
    assert type(op.gram) is tuple and all(type(row) is tuple for row in op.gram)


def test_no_record_type_has_a_mutable_default():
    defaults = [v for cls in FROZEN for v in cls._field_defaults.values()]
    defaults += [v for cls in MUTABLE for v in cls.__init__.__defaults__ or ()]
    assert not [v for v in defaults if isinstance(v, (list, dict, set))]
    assert {"provenance", "warnings"}.isdisjoint(BoundReport._field_defaults)
