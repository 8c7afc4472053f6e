"""Screening of candidate diagrams for a contact Kirby move of type 1.

A topological Kirby move of type 1 adds or deletes a (+/-1)-framed
unknot.  A contact analogue must therefore be a contact n-surgery on a
Legendrian unknot with tb = -m that (a) is topologically a (+/-1)
surgery, forcing n = m - 1 or n = m + 1 with n >= 0, and (b) gives the
standard tight 3-sphere back.

Candidates split into two collections by the framing branch:

* ``C1``: n = m - 1 (topologically -1).  None survive: n = 0 is contact
  0-surgery, overtwisted by definition, and for m >= 2 the framing
  unknot ends with tb 0, so it violates the Bennequin inequality and
  bounds an overtwisted disk.
* ``C2``: n = m + 1 (topologically +1).  The framing unknot ends with
  tb -2 on every branch; its rotation number is 2m - 1 on the all-plus
  branch (a Bennequin violation once m >= 2) and -1 on the all-minus
  branch, which stays consistent with the standard tight structure.

"Consistent with" is deliberately weaker than "tight": a satisfied
Bennequin check certifies nothing, so surviving branches are reported
with their tightness asserted on external grounds, never computed.
A verdict's status and a report's collection and summary are derived
from what they hold, never stored beside it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GateRejectionError, InvalidLegendrianError, Value, echo_int
from .legendrian import ExternalKnot, LegendrianUnknot, kirby_topological_condition
from .presentation import enumerate_presentations, signs_string
from .transform import BennequinVerdict, bennequin, invariants_after_surgery

OVERTWISTED_CERTIFIED = "overtwisted-certified"
CONSISTENT_WITH_STANDARD_TIGHT = "consistent-with-standard-tight"

ZERO_SURGERY_REASON = "contact 0-surgery yields an overtwisted contact structure"

_set = object.__setattr__


def _gate_check(m: int, n: int, rot: int) -> None:
    # exact types: n=True would print as true, and 3.0 equals 3 but is not m
    if type(m) is not int or type(n) is not int:
        raise GateRejectionError(
            "m, n integers",
            f"m and n must be integers (got types {type(m).__name__} and {type(n).__name__})",
        )
    if m < 1:
        raise GateRejectionError("m >= 1", f"tb = -m requires m >= 1 (got m={echo_int(m)})")
    if n < 0:
        raise GateRejectionError(
            "n >= 0", f"contact framing must be non-negative (got n={echo_int(n)})"
        )
    if kirby_topological_condition(m, n) is None:
        raise GateRejectionError(
            "n = m +/- 1",
            f"topological condition n = m +/- 1 fails (m={echo_int(m)}, n={echo_int(n)})",
        )
    try:
        LegendrianUnknot(-m, rot)
    except InvalidLegendrianError as exc:
        raise GateRejectionError("valid unknot", str(exc)) from exc


class CandidateDiagram(Value):
    """A gated candidate: contact n-surgery on the unknot with tb = -m."""

    __slots__ = _fields = ("m", "n", "rot")

    def __init__(self, m: int, n: int, rot: int):
        _gate_check(m, n, rot)
        _set(self, "m", m)
        _set(self, "n", n)
        _set(self, "rot", rot)

    @property
    def branch(self) -> int:
        """+1 for the n = m + 1 branch, -1 for n = m - 1."""
        return 1 if self.n == self.m + 1 else -1

    @property
    def collection(self) -> str:
        return "C2" if self.branch == 1 else "C1"

    @property
    def knot(self) -> LegendrianUnknot:
        return LegendrianUnknot(-self.m, self.rot)


class PresentationVerdict(Value):
    """Verdict for one stabilization branch of a candidate's conversion.

    ``bennequin`` and ``status`` are derived: the Bennequin check of the
    invariants, made once by the constructor, and consistent with the
    standard tight 3-sphere exactly when that check is satisfied,
    otherwise overtwisted-certified.  The contact 0-surgery shortcut
    records no invariants, so no check, and carries its justification in
    ``reason`` instead.
    """

    _fields = ("sign_choice", "tb_new", "rot_new", "reason")
    __slots__ = _fields + ("bennequin",)

    def __init__(
        self, sign_choice: tuple, tb_new: int | None, rot_new: int | None,
        reason: str | None = None,
    ):
        _set(self, "sign_choice", sign_choice)
        _set(self, "tb_new", tb_new)
        _set(self, "rot_new", rot_new)
        _set(self, "reason", reason)
        _set(self, "bennequin", None if tb_new is None else bennequin(tb_new, rot_new))

    @property
    def status(self) -> str:
        check = self.bennequin
        if check is not None and check.satisfied:
            return CONSISTENT_WITH_STANDARD_TIGHT
        return OVERTWISTED_CERTIFIED

    @property
    def signs_string(self) -> str:
        return signs_string(self.sign_choice)


class CandidateReport(Value):
    """Full screening result for one candidate diagram."""

    __slots__ = _fields = ("diagram", "verdicts")

    def __init__(self, diagram: CandidateDiagram, verdicts: tuple):
        _set(self, "diagram", diagram)
        _set(self, "verdicts", verdicts)

    @property
    def collection(self) -> str:
        return self.diagram.collection

    @property
    def summary(self) -> str:
        return _summarize(self.verdicts)

    @property
    def survives(self) -> bool:
        return any(
            v.status == CONSISTENT_WITH_STANDARD_TIGHT for v in self.verdicts
        )


def gate(m: int, n: int, rot: int | None = None) -> CandidateDiagram:
    """Admit a candidate diagram or raise naming the first failed condition.

    ``rot`` defaults to -(m - 1), the canonical representative; the
    mirror diagram is covered by the rot-negation symmetry rather than
    listed separately.
    """
    if rot is None and type(m) is int:  # any other m fails the gate's first check
        rot = -(m - 1)
    return CandidateDiagram(m, n, rot)


def classify(diagram: CandidateDiagram) -> CandidateReport:
    """Run the full screening of one gated candidate.

    Every stabilization branch of the (+/-1)-conversion is measured: the
    branches share one surgery, whose continuant solve runs once, and each
    then costs one integer dot product, with no components built.  The
    topological framing unknot (tb -1, rot 0, linking number equal to the
    framing branch sign) bounds a disk after surgery, so a Bennequin
    violation certifies an overtwisted result, while a satisfied check
    leaves the branch consistent with the standard tight 3-sphere.
    """
    if diagram.n == 0:
        verdicts = (
            PresentationVerdict(
                sign_choice=(),
                tb_new=None,
                rot_new=None,
                reason=ZERO_SURGERY_REASON,
            ),
        )
        return CandidateReport(diagram, verdicts)

    ext = ExternalKnot(LegendrianUnknot(-1, 0), diagram.branch)
    verdicts = []
    for pres in enumerate_presentations(diagram.knot, Fraction(diagram.n)):
        invariants = invariants_after_surgery(pres, ext)
        verdicts.append(
            PresentationVerdict(
                sign_choice=pres.sign_choice,
                tb_new=invariants.tb_new,
                rot_new=invariants.rot_new,
            )
        )
    return CandidateReport(diagram, tuple(verdicts))


def _summarize(verdicts) -> str:
    survivors = sum(
        1 for v in verdicts if v.status == CONSISTENT_WITH_STANDARD_TIGHT
    )
    if survivors == 0:
        if any(v.reason == ZERO_SURGERY_REASON for v in verdicts):
            return f"not a candidate move: {ZERO_SURGERY_REASON}"
        return (
            f"not a candidate move: all {len(verdicts)} presentations certify "
            "an overtwisted structure"
        )
    return (
        f"potential contact Kirby move of type 1: {survivors} of "
        f"{len(verdicts)} presentations consistent with the standard tight "
        "3-sphere (tightness asserted, not computed)"
    )


def emit_table(m_max: int) -> list:
    """Reports for every candidate (m, m - 1) and (m, m + 1) with m <= m_max.

    Rows come in deterministic order: m ascending, lower framing first.
    """
    reports = []
    for m in range(1, m_max + 1):
        for n in (m - 1, m + 1):
            reports.append(classify(gate(m, n)))
    return reports
