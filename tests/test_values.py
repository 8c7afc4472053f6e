"""Value semantics of the package's twelve immutable classes.

Each one equals only an instance of its own class with equal fields,
hashes by those fields, refuses assignment and deletion, prints as
``Name(field=value, ...)`` (a matrix as ``Name([[row], ...])``) and
survives copy and pickle.
"""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from contact_kirby.exact import IntMatrix, RationalMatrix
from contact_kirby.kirby import (
    CONSISTENT_WITH_STANDARD_TIGHT,
    OVERTWISTED_CERTIFIED,
    CandidateDiagram,
    CandidateReport,
    PresentationVerdict,
)
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot
from contact_kirby.presentation import CFExpansion, Component, Presentation, Surgery
from contact_kirby.transform import BennequinVerdict, PostSurgeryInvariants

KNOT = LegendrianUnknot(-1, 0)
VERDICT = PresentationVerdict((), None, None, "why")

# class, its fields as keyword arguments, and the repr of that value
CASES = [
    (LegendrianUnknot, {"tb": -2, "rot": -1}, "LegendrianUnknot(tb=-2, rot=-1)"),
    (
        ExternalKnot,
        {"knot": KNOT, "lk_with_original": 1},
        "ExternalKnot(knot=LegendrianUnknot(tb=-1, rot=0), lk_with_original=1)",
    ),
    (CFExpansion, {"coeffs": (-3, -2)}, "CFExpansion(coeffs=(-3, -2))"),
    (
        Component,
        {
            "index": 1, "knot": LegendrianUnknot(-3, 0), "contact_sign": -1,
            "stabs_pos": 1, "stabs_neg": 1,
        },
        "Component(index=1, knot=LegendrianUnknot(tb=-3, rot=0), contact_sign=-1, "
        "stabs_pos=1, stabs_neg=1)",
    ),
    (
        Presentation,
        {"source_knot": KNOT, "source_coefficient": Fraction(3, 2), "sign_choice": (1, -1)},
        "Presentation(source_knot=LegendrianUnknot(tb=-1, rot=0), "
        "source_coefficient=Fraction(3, 2), sign_choice=(1, -1))",
    ),
    (
        PostSurgeryInvariants,
        {"tb_new": -2, "rot_new": -1},
        "PostSurgeryInvariants(tb_new=-2, rot_new=-1)",
    ),
    (
        BennequinVerdict,
        {"satisfied": True, "slack": 0},
        "BennequinVerdict(satisfied=True, slack=0)",
    ),
    (CandidateDiagram, {"m": 2, "n": 3, "rot": -1}, "CandidateDiagram(m=2, n=3, rot=-1)"),
    (
        PresentationVerdict,
        {"sign_choice": (1,), "tb_new": -2, "rot_new": 1, "reason": None},
        "PresentationVerdict(sign_choice=(1,), tb_new=-2, rot_new=1, reason=None)",
    ),
    (
        CandidateReport,
        {"diagram": CandidateDiagram(1, 2, 0), "verdicts": (VERDICT,)},
        "CandidateReport(diagram=CandidateDiagram(m=1, n=2, rot=0), "
        "verdicts=(PresentationVerdict(sign_choice=(), tb_new=None, rot_new=None, "
        "reason='why'),))",
    ),
    (IntMatrix, {"entries": ((1, -2), (3, 4))}, "IntMatrix([[1, -2], [3, 4]])"),
    (
        RationalMatrix,
        {"entries": ((1, -2), (3, 4))},
        "RationalMatrix([[Fraction(1, 1), Fraction(-2, 1)], [Fraction(3, 1), Fraction(4, 1)]])",
    ),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, fields, text):
    value = cls(**fields)
    assert value == cls(*fields.values())
    assert tuple(getattr(value, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equal_values_hash_equal(cls, fields, text):
    a, b = cls(**fields), cls(**fields)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_equality_is_type_strict(cls, fields, text):
    value = cls(**fields)
    other = type("Other", (cls,), {})(**fields)
    assert value != tuple(fields.values())
    assert value != SimpleNamespace(**fields)
    assert value != other and other != value
    # a class of the same fields, as IntMatrix is to RationalMatrix
    for twin_cls, twin_fields, _ in CASES:
        if twin_cls is not cls and twin_fields.keys() == fields.keys():
            twin = twin_cls(**fields)
            assert value != twin and twin != value


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, text):
    value = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(**fields)
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_value(cls, fields, text):
    value = cls(**fields)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value
        assert repr(twin) == text


@pytest.mark.parametrize("cls, fields, text", CASES, ids=IDS)
def test_class_patterns_match_the_fields_in_order(cls, fields, text):
    assert cls.__match_args__[:len(fields)] == tuple(fields)


def test_inputs_are_normalized():
    assert CFExpansion([-3, -2]).coeffs == (-3, -2)
    pres = Presentation(KNOT, 2, [1])
    assert pres == Presentation(KNOT, Fraction(2), (1,))
    assert type(pres.source_coefficient) is Fraction
    assert pres.sign_choice == (1,)


class TestPresentation:
    def test_equality_and_hash_read_knot_coefficient_and_signs_only(self):
        built = Presentation(KNOT, Fraction(3, 2), (1, -1))
        assert len(built.components) == 2
        surgery = Surgery(KNOT, Fraction(3, 2))
        surgery.classes[built.key] = ("doctored",)
        doctored = Presentation(KNOT, Fraction(3, 2), (1, -1), surgery)
        assert doctored.components == ("doctored",)
        assert doctored == built and hash(doctored) == hash(built)
        assert repr(doctored) == repr(built)
        assert doctored != Presentation(KNOT, Fraction(3, 2), (1, 1))

    def test_classes_is_a_constructor_argument_only(self):
        pres = Presentation(
            source_knot=KNOT, source_coefficient=Fraction(3, 2), sign_choice=(1, -1),
            surgery=Surgery(KNOT, Fraction(3, 2)),
        )
        assert pres == Presentation(KNOT, Fraction(3, 2), (1, -1))
        with pytest.raises(AttributeError):
            pres.components = ()


class TestPresentationVerdict:
    def test_bennequin_and_status_are_derived(self):
        tight = PresentationVerdict((-1,), -2, -1)
        assert tight.bennequin == BennequinVerdict(True, 0)
        assert tight.bennequin is tight.bennequin
        assert tight.status == CONSISTENT_WITH_STANDARD_TIGHT
        violated = PresentationVerdict((1,), -2, 3)
        assert violated.bennequin == BennequinVerdict(False, -2)
        assert violated.status == OVERTWISTED_CERTIFIED
        assert VERDICT.bennequin is None
        assert VERDICT.status == OVERTWISTED_CERTIFIED

    def test_derived_values_are_not_arguments_or_fields(self):
        with pytest.raises(TypeError):
            PresentationVerdict((), -2, -1, None, BennequinVerdict(True, 0))
        with pytest.raises(TypeError):
            PresentationVerdict((), -2, -1, bennequin=BennequinVerdict(True, 0))
        with pytest.raises(AttributeError):
            VERDICT.bennequin = BennequinVerdict(True, 0)
        with pytest.raises(AttributeError):
            VERDICT.status = CONSISTENT_WITH_STANDARD_TIGHT
