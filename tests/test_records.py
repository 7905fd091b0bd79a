"""Records are NamedTuples: checked however they are built, immutable, equal by value."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hcm import barpage, bounds, classify, f2linalg, groups, resolution, steenrod, stmodule
from hcm.errors import ContractViolationError, DiagramError, InputError

RECORDS = {
    f2linalg: ("F2Matrix", "Subspace"),
    steenrod: ("SqSum",),
    stmodule: ("CellDiagram",),
    resolution: ("Generator", "FreeResolution", "ExtChart"),
    barpage: ("Summand", "E1Page"),
    bounds: ("VanishingParams", "Condition", "AfJReport", "TableRow", "ScanCase",
             "DominanceCertificate", "ScanResult", "FiltrationFact"),
    classify: ("GeneratorInfo", "StemRecord", "ProductFact", "ConditionalGroup", "KernelInfo",
               "BoundaryInfo", "ClassificationResult"),
    groups: ("AbelianGroup",),
}


def test_the_records_are_every_namedtuple_of_the_package():
    for module, names in RECORDS.items():
        found = {name for name, obj in vars(module).items()
                 if isinstance(obj, type) and issubclass(obj, tuple)
                 and obj.__module__ == module.__name__}
        assert found == set(names), module.__name__
    assert sum(map(len, RECORDS.values())) == 25


@pytest.mark.parametrize("cls", [getattr(m, n) for m, names in RECORDS.items() for n in names],
                         ids=lambda cls: cls.__name__)
def test_a_record_takes_no_assignment(cls):
    record = tuple.__new__(cls, [None] * len(cls._fields))  # the values do not matter here
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)


# (a valid record, fields that break it, the error its check raises)
CHECKED = [
    (f2linalg.F2Matrix(2, 2, (1, 2)), {"data": (1,)}, ContractViolationError,
     "inconsistent matrix shape"),
    (f2linalg.F2Matrix(2, 2, (1, 2)), {"data": (1, 4)}, ContractViolationError,
     "row has bits beyond the last column"),
    (steenrod.SqSum(((3,),)), {"terms": ((2, 1), (3,))}, ContractViolationError,
     "SqSum terms must be distinct and sorted"),
    (steenrod.SqSum(((3,),)), {"terms": ((1, 2),)}, ContractViolationError,
     "inadmissible monomial"),
    (steenrod.SqSum(((3,),)), {"terms": ((3,), (2,))}, ContractViolationError,
     "SqSum mixes degrees"),
    (groups.AbelianGroup(1, (4, 2)), {"free_rank": -1}, ContractViolationError,
     "negative free rank"),
    (groups.AbelianGroup(1, (4, 2)), {"torsion": (6,)}, ContractViolationError,
     "torsion orders must be powers of 2"),
    (groups.AbelianGroup(1, (4, 2)), {"torsion": (2, 4)}, ContractViolationError,
     "torsion orders must be sorted descending"),
    (stmodule.diagram([("a", 0), ("b", 2)], [("b", "a", 2)]), {"cells": (("a", 0), ("a", 2))},
     DiagramError, "duplicate cell labels"),
    (stmodule.diagram([("a", 0), ("b", 2)], [("b", "a", 2)]), {"edges": (("c", "a", 2),)},
     DiagramError, "references unknown cell"),
    (stmodule.diagram([("a", 0), ("b", 2)], [("b", "a", 2)]), {"edges": (("b", "a", 1),)},
     DiagramError, "labelled Sq_1 but degrees differ by 2"),
    (bounds.vanishing_params(1), {"b": Fraction(2)}, ContractViolationError, "need b <= d"),
    (bounds.vanishing_params(1), {"r": 0}, ContractViolationError, "need r >= 1"),
    (classify.load_stems().stem(3), {"k": 0}, InputError, "stem must be positive"),
    (classify.load_stems().stem(3), {"im_j_order": 16}, InputError,
     r"im_j_order 16 does not divide \|pi_3\|"),
]


@pytest.mark.parametrize("good, bad, error, message", CHECKED,
                         ids=[f"{type(c[0]).__name__}-{c[3][:24]}" for c in CHECKED])
def test_a_checked_record_refuses_a_bad_field_however_built(good, bad, error, message):
    cls = type(good)
    assert cls(*good) == good and good._replace() == good and cls._make(good) == good
    fields = {**good._asdict(), **bad}
    with pytest.raises(error, match=message):
        cls(**fields)
    with pytest.raises(error, match=message):
        cls(*fields.values())
    with pytest.raises(error, match=message):
        good._replace(**bad)
    with pytest.raises(error, match=message):
        cls._make(fields.values())


def test_a_replaced_subspace_reads_its_pivots_off_the_new_basis():
    sub = f2linalg.span([0b110, 0b011], 3)
    assert sub.piv == {0: 0b101, 1: 0b110}
    assert sub._replace(basis=(0b100,)).piv == {2: 0b100}

