"""The exact-type rule: every check of a parameter's type, with its whole message.

A tb, rot, m, n, linking number, bound, sign, class key, knot, external
knot, presentation or diagram given as ``True``, ``1.0`` or ``None`` is
refused with the check's own exception class and text, and the gate's
refusal names its condition.  Every public function that reads a
presentation (the linking matrix, the linking and rotation columns,
the mirror, and the two invariant solves) refuses anything but a
``Presentation`` with one message, where it would otherwise fail on a
missing attribute.
"""

from fractions import Fraction

import pytest

from contact_kirby.errors import GateRejectionError, InvalidInputError, InvalidLegendrianError
from contact_kirby.kirby import CandidateDiagram, classify, emit_table, gate
from contact_kirby.legendrian import (
    ExternalKnot,
    LegendrianUnknot,
    kirby_topological_condition,
    stabilize,
)
from contact_kirby.presentation import (
    Presentation,
    Surgery,
    convert,
    expand_negative,
    linking_matrix,
    linking_vector,
    mirror,
    rot_vector,
)
from contact_kirby.transform import (
    bennequin,
    framing_unknot_tb_shift,
    invariants_after_surgery,
    invariants_by_inverse,
)

KNOT = LegendrianUnknot(-1, 0)
EXT = ExternalKnot(KNOT, 1)
PRES = convert(KNOT, -1, [])

# (check, call, exception class, whole message)
CASES = [
    ("legendrian._check_invariants", lambda: LegendrianUnknot(True, 0), InvalidLegendrianError,
     "tb and rot must be integers (got types bool and int)"),
    ("legendrian._check_invariants", lambda: LegendrianUnknot(-1, 1.0), InvalidLegendrianError,
     "tb and rot must be integers (got types int and float)"),
    ("legendrian._check_invariants", lambda: LegendrianUnknot(None, None), InvalidLegendrianError,
     "tb and rot must be integers (got types NoneType and NoneType)"),
    ("legendrian.ExternalKnot knot", lambda: ExternalKnot(True, 1), InvalidInputError,
     "a knot must be a LegendrianUnknot (got type bool)"),
    ("legendrian.ExternalKnot knot", lambda: ExternalKnot(1.0, 1), InvalidInputError,
     "a knot must be a LegendrianUnknot (got type float)"),
    ("legendrian.ExternalKnot knot", lambda: ExternalKnot(None, 1), InvalidInputError,
     "a knot must be a LegendrianUnknot (got type NoneType)"),
    ("legendrian.ExternalKnot lk", lambda: ExternalKnot(KNOT, True), InvalidInputError,
     "lk must be an integer (got type bool)"),
    ("legendrian.ExternalKnot lk", lambda: ExternalKnot(KNOT, 1.0), InvalidInputError,
     "lk must be an integer (got type float)"),
    ("legendrian.ExternalKnot lk", lambda: ExternalKnot(KNOT, None), InvalidInputError,
     "lk must be an integer (got type NoneType)"),
    ("legendrian.stabilize", lambda: stabilize(KNOT, True), InvalidInputError,
     "stabilization sign must be +1 or -1, got True"),
    ("legendrian.stabilize", lambda: stabilize(KNOT, 1.0), InvalidInputError,
     "stabilization sign must be +1 or -1, got 1.0"),
    ("legendrian.stabilize", lambda: stabilize(KNOT, None), InvalidInputError,
     "stabilization sign must be +1 or -1, got None"),
    ("legendrian.kirby_topological_condition", lambda: kirby_topological_condition(True, 2),
     InvalidInputError, "m and n must be integers (got types bool and int)"),
    ("legendrian.kirby_topological_condition", lambda: kirby_topological_condition(1, 2.0),
     InvalidInputError, "m and n must be integers (got types int and float)"),
    ("legendrian.kirby_topological_condition", lambda: kirby_topological_condition(None, 2),
     InvalidInputError, "m and n must be integers (got types NoneType and int)"),
    ("kirby._gate_check", lambda: gate(True, 2), GateRejectionError,
     "m and n must be integers (got types bool and int)"),
    ("kirby._gate_check", lambda: gate(2, 1.0), GateRejectionError,
     "m and n must be integers (got types int and float)"),
    ("kirby._gate_check", lambda: CandidateDiagram(None, 2, 0), GateRejectionError,
     "m and n must be integers (got types NoneType and int)"),
    ("kirby.classify", lambda: classify(True), InvalidInputError,
     "a diagram must be a CandidateDiagram (got type bool)"),
    ("kirby.classify", lambda: classify(1.0), InvalidInputError,
     "a diagram must be a CandidateDiagram (got type float)"),
    ("kirby.classify", lambda: classify(None), InvalidInputError,
     "a diagram must be a CandidateDiagram (got type NoneType)"),
    ("kirby.emit_table", lambda: emit_table(True), InvalidInputError,
     "m_max must be an integer (got type bool)"),
    ("kirby.emit_table", lambda: emit_table(1.0), InvalidInputError,
     "m_max must be an integer (got type float)"),
    ("kirby.emit_table", lambda: emit_table(None), InvalidInputError,
     "m_max must be an integer (got type NoneType)"),
    ("presentation.Surgery", lambda: Surgery(True, -2), InvalidInputError,
     "a knot must be a LegendrianUnknot (got type bool)"),
    ("presentation.Surgery", lambda: Surgery(1.0, -2), InvalidInputError,
     "a knot must be a LegendrianUnknot (got type float)"),
    ("presentation.Surgery", lambda: Surgery(None, -2), InvalidInputError,
     "a knot must be a LegendrianUnknot (got type NoneType)"),
    ("presentation.Surgery.class_components", lambda: Surgery(KNOT, -2).class_components(True),
     InvalidInputError, "a class key must be a tuple (got type bool)"),
    ("presentation.Surgery.class_components", lambda: Surgery(KNOT, -2).class_components(1.0),
     InvalidInputError, "a class key must be a tuple (got type float)"),
    ("presentation.Surgery.class_components", lambda: Surgery(KNOT, -2).class_components(None),
     InvalidInputError, "a class key must be a tuple (got type NoneType)"),
    ("presentation._surgery_of", lambda: Presentation(KNOT, -2, (), True), InvalidInputError,
     "a surgery must be a Surgery (got type bool)"),
    ("presentation._surgery_of", lambda: Presentation(KNOT, -2, (), 1.0), InvalidInputError,
     "a surgery must be a Surgery (got type float)"),
    ("presentation._conversion_plan", lambda: Surgery(KNOT, -2, True), InvalidInputError,
     "a component bound must be an integer (got type bool)"),
    ("presentation._conversion_plan", lambda: expand_negative(Fraction(-3, 2), 1.0),
     InvalidInputError, "a component bound must be an integer (got type float)"),
    ("presentation._conversion_plan", lambda: Surgery(KNOT, 2, None), InvalidInputError,
     "a component bound must be an integer (got type NoneType)"),
    ("presentation.linking_matrix", lambda: linking_matrix(True), InvalidInputError,
     "a presentation must be a Presentation (got type bool)"),
    ("presentation.linking_matrix", lambda: linking_matrix(1.0), InvalidInputError,
     "a presentation must be a Presentation (got type float)"),
    ("presentation.linking_matrix", lambda: linking_matrix(None), InvalidInputError,
     "a presentation must be a Presentation (got type NoneType)"),
    ("presentation.rot_vector", lambda: rot_vector(True), InvalidInputError,
     "a presentation must be a Presentation (got type bool)"),
    ("presentation.rot_vector", lambda: rot_vector(1.0), InvalidInputError,
     "a presentation must be a Presentation (got type float)"),
    ("presentation.rot_vector", lambda: rot_vector(None), InvalidInputError,
     "a presentation must be a Presentation (got type NoneType)"),
    ("presentation.mirror", lambda: mirror(True), InvalidInputError,
     "a presentation must be a Presentation (got type bool)"),
    ("presentation.mirror", lambda: mirror(1.0), InvalidInputError,
     "a presentation must be a Presentation (got type float)"),
    ("presentation.mirror", lambda: mirror(None), InvalidInputError,
     "a presentation must be a Presentation (got type NoneType)"),
    ("presentation.linking_vector presentation", lambda: linking_vector(True, EXT),
     InvalidInputError, "a presentation must be a Presentation (got type bool)"),
    ("presentation.linking_vector presentation", lambda: linking_vector(1.0, EXT),
     InvalidInputError, "a presentation must be a Presentation (got type float)"),
    ("presentation.linking_vector presentation", lambda: linking_vector(None, EXT),
     InvalidInputError, "a presentation must be a Presentation (got type NoneType)"),
    ("presentation.linking_vector ext", lambda: linking_vector(PRES, True),
     InvalidInputError, "an external knot must be an ExternalKnot (got type bool)"),
    ("presentation.linking_vector ext", lambda: linking_vector(PRES, 1.0),
     InvalidInputError, "an external knot must be an ExternalKnot (got type float)"),
    ("presentation.linking_vector ext", lambda: linking_vector(PRES, None),
     InvalidInputError, "an external knot must be an ExternalKnot (got type NoneType)"),
    ("transform.framing_unknot_tb_shift sign", lambda: framing_unknot_tb_shift(True, -1),
     InvalidInputError, "topological surgery sign must be +1 or -1, got True"),
    ("transform.framing_unknot_tb_shift sign", lambda: framing_unknot_tb_shift(-1.0, -1),
     InvalidInputError, "topological surgery sign must be +1 or -1, got -1.0"),
    ("transform.framing_unknot_tb_shift sign", lambda: framing_unknot_tb_shift(None, -1),
     InvalidInputError, "topological surgery sign must be +1 or -1, got None"),
    ("transform.framing_unknot_tb_shift tb0", lambda: framing_unknot_tb_shift(1, True),
     InvalidInputError, "tb must be an integer (got type bool)"),
    ("transform.framing_unknot_tb_shift tb0", lambda: framing_unknot_tb_shift(-1, -1.0),
     InvalidInputError, "tb must be an integer (got type float)"),
    ("transform.framing_unknot_tb_shift tb0", lambda: framing_unknot_tb_shift(1, None),
     InvalidInputError, "tb must be an integer (got type NoneType)"),
    ("transform.invariants_after_surgery presentation",
     lambda: invariants_after_surgery(True, EXT), InvalidInputError,
     "a presentation must be a Presentation (got type bool)"),
    ("transform.invariants_after_surgery ext", lambda: invariants_after_surgery(PRES, 1.0),
     InvalidInputError, "an external knot must be an ExternalKnot (got type float)"),
    ("transform.invariants_after_surgery ext", lambda: invariants_after_surgery(PRES, None),
     InvalidInputError, "an external knot must be an ExternalKnot (got type NoneType)"),
    ("transform.invariants_by_inverse presentation", lambda: invariants_by_inverse(None, EXT),
     InvalidInputError, "a presentation must be a Presentation (got type NoneType)"),
    ("transform.invariants_by_inverse ext", lambda: invariants_by_inverse(PRES, True),
     InvalidInputError, "an external knot must be an ExternalKnot (got type bool)"),
    ("transform.bennequin", lambda: bennequin(True, 0), InvalidInputError,
     "tb and rot must be integers (got types bool and int)"),
    ("transform.bennequin", lambda: bennequin(-2, 1.0), InvalidInputError,
     "tb and rot must be integers (got types int and float)"),
    ("transform.bennequin", lambda: bennequin(None, True), InvalidInputError,
     "tb and rot must be integers (got types NoneType and bool)"),
]


@pytest.mark.parametrize(
    "call, error, message", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_a_value_of_another_type_is_refused_with_the_checks_message(call, error, message):
    with pytest.raises(InvalidInputError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    if error is GateRejectionError:
        assert info.value.condition == "m, n integers"

