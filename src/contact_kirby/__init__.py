"""Exact contact-surgery calculus on Legendrian unknots.

The package converts rational contact surgeries into (+/-1)-surgery
presentations, computes post-surgery classical invariants of framing
unknots with exact linking-matrix algebra, and screens candidate
diagrams for a contact Kirby move of type 1.
"""

from types import ModuleType as _ModuleType

from .errors import (
    GateRejectionError,
    InvalidExpansionError,
    InvalidInputError,
    InvalidLegendrianError,
    NonIntegralInvariantError,
    SingularMatrixError,
    ZeroSurgeryError,
)
from .exact import IntMatrix, RationalMatrix, apply, det, inner, invert
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
    LegendrianUnknot,
    kirby_topological_condition,
    stabilize,
)
from .presentation import (
    CFExpansion,
    Component,
    Presentation,
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
)

__version__ = "0.1.0"

# the import block above is the export list: every public name it binds
# (the submodules bound beside them excepted)
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
