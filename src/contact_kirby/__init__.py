"""Exact contact-surgery calculus on Legendrian unknots.

The package converts rational contact surgeries into (+/-1)-surgery
presentations, computes post-surgery classical invariants of framing
unknots with exact linking-matrix algebra, and screens candidate
diagrams for a contact Kirby move of type 1.
"""

from .errors import (
    GateRejectionError,
    InvalidExpansionError,
    InvalidInputError,
    InvalidLegendrianError,
    NonIntegralInvariantError,
    SingularMatrixError,
    UnsupportedFramingError,
    ZeroSurgeryError,
)
from .exact import IntMatrix, Rational, RationalMatrix, apply, det, inner, invert, reduce
from .kirby import (
    CONSISTENT_WITH_STANDARD_TIGHT,
    OVERTWISTED_CERTIFIED,
    CandidateDiagram,
    CandidateReport,
    PresentationVerdict,
    classify,
    emit_table,
    gate,
)
from .legendrian import (
    ExternalKnot,
    FramingCurve,
    LegendrianUnknot,
    contact_framing_curve,
    kirby_topological_condition,
    stabilize,
    topological_coefficient,
    validate_unknot,
)
from .presentation import (
    CFExpansion,
    Component,
    Presentation,
    component_count,
    convert,
    enumerate_presentations,
    evaluate_cf,
    expand_negative,
    linking_matrix,
    linking_vector,
    rot_vector,
    stabilization_budget,
)
from .transform import (
    BennequinVerdict,
    PostSurgeryInvariants,
    bennequin,
    framing_unknot_tb_shift,
    invariants_after_surgery,
    invariants_by_inverse,
    rot_after_surgery,
    tb_after_surgery,
)

__version__ = "0.1.0"

__all__ = [
    "BennequinVerdict",
    "CFExpansion",
    "CandidateDiagram",
    "CandidateReport",
    "Component",
    "CONSISTENT_WITH_STANDARD_TIGHT",
    "ExternalKnot",
    "FramingCurve",
    "GateRejectionError",
    "IntMatrix",
    "InvalidExpansionError",
    "InvalidInputError",
    "InvalidLegendrianError",
    "LegendrianUnknot",
    "NonIntegralInvariantError",
    "OVERTWISTED_CERTIFIED",
    "PostSurgeryInvariants",
    "Presentation",
    "PresentationVerdict",
    "Rational",
    "RationalMatrix",
    "SingularMatrixError",
    "UnsupportedFramingError",
    "ZeroSurgeryError",
    "apply",
    "bennequin",
    "classify",
    "component_count",
    "contact_framing_curve",
    "convert",
    "det",
    "emit_table",
    "enumerate_presentations",
    "evaluate_cf",
    "expand_negative",
    "framing_unknot_tb_shift",
    "gate",
    "inner",
    "invariants_after_surgery",
    "invariants_by_inverse",
    "invert",
    "kirby_topological_condition",
    "linking_matrix",
    "linking_vector",
    "reduce",
    "rot_after_surgery",
    "rot_vector",
    "stabilization_budget",
    "stabilize",
    "tb_after_surgery",
    "topological_coefficient",
    "validate_unknot",
]
