"""Classical invariants of an external knot after surgery.

Both invariants come from the linking data alone.  With M the linking
matrix of the presentation, L the column of linking numbers of the
external knot K0 with the link components, and C the column of the
components' rotation numbers:

    rot_new(K0) = rot(K0) - <C, M^-1 L>
    tb_new(K0)  = tb(K0)  - <L, M^-1 L>

:func:`invariants_after_surgery`, the one entry point of the screen,
solves for both invariants at once and never inverts M.  Sliding each
component over its predecessor (the handle slides P, row i of P equal to e_i - e_{i-1}) makes P M P^T
tridiagonal: the linear plumbing of the lens space that the surgery
produces.  With t_i, s_i and r_i the tb, contact sign and rot of
component i (1-based, all zero at i = 0), its diagonal is
a_i = (t_i - t_{i-1}) + s_i + s_{i-1} and its off-diagonal entries are
-s_i, whose square is 1.  The trailing continuants

    theta_{n+1} = 1,  theta_{n+2} = 0,  theta_k = a_k theta_{k+1} - theta_{k+2}

give det M = theta_1.  Every entry of L is the same linking number lk,
so P L = lk e_1 and

    <L, M^-1 L> = lk^2 theta_2 / theta_1
    <C, M^-1 L> = lk sum_k (r_k - r_{k-1}) (s_1 ... s_{k-1}) theta_{k+1} / theta_1

Every numerator is an integer and the only division is the final
reduction by theta_1, so a zero continuant part-way along the chain (at
a (+1) component) needs no pivoting, and theta_1 = 0 means M is
singular.  Neither M nor the thetas depend on the stabilization signs,
and the rot steps r_k - r_{k-1} are affine in the branch's class key
(the positive sign count of each chain entry), so the thetas and the
weights of that sum are computed once per surgery
(:meth:`presentation.Surgery.solve_terms`, linear in the number of
components).  Each branch then costs one integer dot product and two
exact divisions, and builds no components.

:func:`invariants_by_inverse` is the general path: the dense Bareiss
inverse of :mod:`exact` applied to M itself.  ``analyze``, which prints
M and its determinant for one diagram, reports the invariants of that
printed matrix by this path; the screening of whole families
(``classify``, ``table``) goes through the continuants.

The results are only honest integers when they are integral rationals
(always the case when |det M| = 1); a non-integral outcome raises
instead of rounding.

For the special case where K0 is the topological framing unknot of a
topologically (+/-1)-framed surgery knot, the tb shift is also known on
first principles (cutting the Seifert annulus and capping with a
meridional disk moves the framing by the surgery sign); that rule,
:func:`framing_unknot_tb_shift`, stays an independent cross-check of the
quadratic form.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import mul

from .errors import (
    InvalidInputError,
    NonIntegralInvariantError,
    SingularMatrixError,
    Value,
    echo_value,
)
from .exact import apply, inner, invert
from .legendrian import ExternalKnot
from .presentation import Presentation, linking_matrix, linking_vector, rot_vector


_set = object.__setattr__


class PostSurgeryInvariants(Value):
    """Invariants of an external knot in the surgered manifold."""

    __slots__ = _fields = ("tb_new", "rot_new")

    def __init__(self, tb_new: int, rot_new: int):
        _set(self, "tb_new", tb_new)
        _set(self, "rot_new", rot_new)


class BennequinVerdict(Value):
    """Outcome of the Bennequin test tb + |rot| <= -1.

    ``slack`` is ``-1 - tb - |rot|``; the inequality holds exactly when
    the slack is non-negative.  A violation on an unknot that bounds a
    disk certifies an overtwisted ambient structure; satisfaction proves
    nothing.
    """

    __slots__ = _fields = ("satisfied", "slack")

    def __init__(self, satisfied: bool, slack: int):
        _set(self, "satisfied", satisfied)
        _set(self, "slack", slack)


def _require_integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        try:
            shown = f": {value}"
        except ValueError:  # past sys.get_int_max_str_digits()
            shown = (
                f"; its exact value has more than {sys.get_int_max_str_digits()} "
                "digits, Python's limit for writing integers"
            )
        raise NonIntegralInvariantError(
            f"post-surgery {what} is not an integer{shown}", value
        )
    return int(value)


def _quotient(numerator: int, det: int, what: str) -> int:
    """``numerator / det`` as an ``int``; a ``Fraction`` is built only to report a non-integer."""
    quotient, rest = divmod(numerator, det)
    if rest:
        _require_integral(Fraction(numerator, det), what)
    return quotient


def invariants_after_surgery(
    presentation: Presentation, ext: ExternalKnot
) -> PostSurgeryInvariants:
    """Both post-surgery invariants from the surgery's one continuant solve.

    tb is checked for integrality first, so a presentation where both
    come out non-integral raises about tb.
    """
    thetas, offset, weights = presentation.surgery.solve_terms()
    det = thetas[0]
    if det == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")
    lk = ext.lk_with_original
    pairing = sum(map(mul, presentation.key, weights), offset)  # <C, M^-1 L> = lk * pairing / det
    return PostSurgeryInvariants(
        _quotient(ext.knot.tb * det - lk * lk * thetas[1], det, "Thurston-Bennequin number"),
        _quotient(ext.knot.rot * det - lk * pairing, det, "rotation number"),
    )


def invariants_by_inverse(
    presentation: Presentation, ext: ExternalKnot
) -> PostSurgeryInvariants:
    """Both post-surgery invariants from the dense inverse of M.

    Equal to :func:`invariants_after_surgery`, errors included, at a
    cubic rather than linear cost; it reads only the linking matrix and
    the two columns, not their chain structure.
    """
    minv = invert(linking_matrix(presentation))
    link = linking_vector(presentation, ext)
    solved = apply(minv, link)
    tb_new = _require_integral(
        Fraction(ext.knot.tb) - inner(link, solved), "Thurston-Bennequin number"
    )
    rot_new = _require_integral(
        Fraction(ext.knot.rot) - inner(rot_vector(presentation), solved),
        "rotation number",
    )
    return PostSurgeryInvariants(tb_new, rot_new)


def framing_unknot_tb_shift(topological_sign: int, tb0: int) -> int:
    """tb of a topological framing unknot after a topologically (+/-1) surgery.

    Topological (+1)-surgery lowers it by one, (-1)-surgery raises it by
    one: the new Seifert disk is the old annulus capped with a meridional
    disk, so the contact longitude moves by exactly the surgery sign.
    """
    if topological_sign not in (1, -1):
        raise InvalidInputError(
            f"topological surgery sign must be +1 or -1, got {echo_value(topological_sign)}"
        )
    return tb0 - topological_sign


def bennequin(tb: int, rot: int) -> BennequinVerdict:
    """Evaluate the Bennequin inequality tb + |rot| <= -1."""
    slack = -1 - tb - abs(rot)
    return BennequinVerdict(slack >= 0, slack)
