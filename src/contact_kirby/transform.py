"""Classical invariants of an external knot after surgery.

Both invariants come from the linking data alone.  With M the linking
matrix of the presentation, L the column of linking numbers of the
external knot K0 with the link components, and C the column of the
components' rotation numbers:

    rot_new(K0) = rot(K0) - <C, M^-1 L>
    tb_new(K0)  = tb(K0)  - <L, M^-1 L>

:func:`invariants_after_surgery`, the one entry point of the screen,
solves for both invariants at once and never builds or inverts M.
Sliding each component over its predecessor (the handle slides P, row
i of P equal to e_i - e_{i-1}) makes P M P^T tridiagonal, a linear
chain whose off-diagonal entries have square 1, and P L = lk e_1, since
every entry of L is the same linking number lk.  With theta_k the
determinant of the slid chain from component k on (theta_1 = det M,
theta_{n+1} = 1) and r_k, s_k the rot and contact sign of component k
(r_0 = 0),

    <L, M^-1 L> = lk^2 theta_2 / theta_1
    <C, M^-1 L> = lk sum_k (r_k - r_{k-1}) (s_1 ... s_{k-1}) theta_{k+1} / theta_1

(tests/oracles.py computes every theta from the entries of M by the
three-term recurrence).  None is computed here: each is a numerator or
denominator of a slam-dunk (Gompf-Stipsicz, section 5.3; Ding-Geiges),
which collapses the chain after a component back into one rational
surgery on it, and the conversion's Euclid walk passes through every
such coefficient.  Chain entry j is read off the walk's x_j = P_j / Q_j,
in lowest terms, so the chain after it has determinant +/- Q_j; the
whole link collapses back into topological (tb + p/q)-surgery on the
knot, so det M = +/- (p + q tb) and theta_2 = +/- q.  Each chain entry,
at most -2, flips a sign: with L chain entries, alt = (-1)^L and eps =
alt sign(p), det M = eps (p + q tb), theta_2 = eps q, and the term
(s_1 ... s_{k-1}) theta_{k+1} of chain entry j is -alt Q_j
(:attr:`presentation.Surgery.solve_terms`).  Neither M nor the thetas
depend on the stabilization signs, and the rot steps r_k - r_{k-1} are
affine in the branch's class key (the positive sign count of each chain
entry), so each branch costs one integer dot product and two exact
divisions, and builds no components.  Every numerator is an integer and
the only division is the final reduction by det M, so det M = 0 means
M is singular.

:func:`invariants_by_inverse` is the general path: the dense Bareiss
inverse of :mod:`exact` applied to M itself.  ``analyze``, which prints
M and its determinant for one diagram, reports the invariants of that
printed matrix by this path; the screening of whole families
(``classify``, ``table``) goes through the slam-dunk terms.

The results are only honest integers when they are integral rationals
(always the case when |det M| = 1); a non-integral outcome raises
:class:`errors.NonIntegralInvariantError` instead of rounding.  Its
``value`` keeps the exact rational, and its message writes each part of
it by :func:`errors.echo_rational`.

For the special case where K0 is the topological framing unknot of a
topologically (+/-1)-framed surgery knot, the tb shift is also known on
first principles (cutting the Seifert annulus and capping with a
meridional disk moves the framing by the surgery sign); that rule,
:func:`framing_unknot_tb_shift`, stays an independent cross-check of the
quadratic form.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import (
    InvalidInputError,
    NonIntegralInvariantError,
    SingularMatrixError,
    Value,
    echo_rational,
    require_sign,
    require_type,
)
from .exact import apply, inner, invert
from .legendrian import ExternalKnot, require_unknot_tb
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


def _quotient(numerator: int, denominator: int, what: str) -> int:
    """``numerator / denominator`` as an ``int``; a ``Fraction`` is built only to report a non-integer."""
    quotient, rest = divmod(numerator, denominator)
    if rest:
        value = Fraction(numerator, denominator)
        raise NonIntegralInvariantError(
            f"post-surgery {what} is not an integer: {echo_rational(value)}", value
        )
    return quotient


def invariants_after_surgery(
    presentation: Presentation, ext: ExternalKnot
) -> PostSurgeryInvariants:
    """Both post-surgery invariants from the surgery's solve terms, no matrix built.

    tb is checked for integrality first, so a presentation where both
    come out non-integral raises about tb.
    """
    require_type(InvalidInputError, "a presentation", Presentation, presentation)
    require_type(InvalidInputError, "an external knot", ExternalKnot, ext)
    det, theta_2, offset, weights = presentation.surgery.solve_terms
    if det == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")
    lk = ext.lk_with_original
    pairing = sum(map(mul, presentation.key, weights), offset)  # <C, M^-1 L> = lk * pairing / det
    return PostSurgeryInvariants(
        _quotient(ext.knot.tb * det - lk * lk * theta_2, det, "Thurston-Bennequin number"),
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
    require_type(InvalidInputError, "a presentation", Presentation, presentation)
    require_type(InvalidInputError, "an external knot", ExternalKnot, ext)
    minv = invert(linking_matrix(presentation))
    link = linking_vector(presentation, ext)
    solved = apply(minv, link)
    tb_new = Fraction(ext.knot.tb) - inner(link, solved)
    rot_new = Fraction(ext.knot.rot) - inner(rot_vector(presentation), solved)
    return PostSurgeryInvariants(
        _quotient(tb_new.numerator, tb_new.denominator, "Thurston-Bennequin number"),
        _quotient(rot_new.numerator, rot_new.denominator, "rotation number"),
    )


def framing_unknot_tb_shift(topological_sign: int, tb0: int) -> int:
    """tb of a topological framing unknot after a topologically (+/-1) surgery.

    Topological (+1)-surgery lowers it by one, (-1)-surgery raises it by
    one: the new Seifert disk is the old annulus capped with a meridional
    disk, so the contact longitude moves by exactly the surgery sign.
    A ``tb0`` above -1, which no Legendrian unknot has, is refused.
    """
    require_sign("topological surgery sign", topological_sign)
    require_type(InvalidInputError, "tb", int, tb0)
    require_unknot_tb(tb0)
    return tb0 - topological_sign


def bennequin(tb: int, rot: int) -> BennequinVerdict:
    """Evaluate the Bennequin inequality tb + |rot| <= -1."""
    require_type(InvalidInputError, "tb and rot", int, tb, rot)
    slack = -1 - tb - abs(rot)
    return BennequinVerdict(slack >= 0, slack)
