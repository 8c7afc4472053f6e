"""Conversion of rational contact surgeries into (+/-1)-surgery chains.

A contact r-surgery on a Legendrian unknot is replaced, exactly and
deterministically, by a link of contact (+1)- and (-1)-surgeries:

* r = +1 and r = -1 already are one-component presentations;
* for r > 0, contact (+1)-surgeries are peeled off (the first on the
  knot itself, later ones on fresh unstabilized push-offs) while the
  residual coefficient follows 1/r' = 1/r - 1, until the residual is
  +1 or negative;
* a negative residual is expanded as a negative continued fraction
  ``[a1, ..., an]`` with every entry at most -2.  Entry ``a_i``
  contributes one chain component: a push-off of its predecessor (of the
  knot itself when nothing precedes it) carrying ``|a_i + 2|``
  stabilizations and a contact (-1) coefficient.

Each stabilization consumes one sign from the caller, so a conversion
with s stabilizations has 2^s distinct presentations.  A presentation is
its knot, its coefficient and its signs: ``Presentation(k, r, s) ==
convert(k, r, s)``, and its components are derived from those three on
construction.  A Legendrian unknot is fixed by (tb, rot), so each chain
component is built in one step from how many of its signs are positive.
Every component is a push-off of the one before it, so its ``parent`` is
derived from its index, never stored.  Linking numbers inside the
resulting link follow the parallel-copy rule: a push-off taken along the
contact framing links its parent, and every later descendant of it, by
the parent's tb at push-off time.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import legendrian
from .errors import InvalidExpansionError, InvalidInputError, ZeroSurgeryError
from .exact import IntMatrix
from .legendrian import ExternalKnot, LegendrianUnknot

Coefficient = Union[int, Fraction]


@dataclass(frozen=True)
class CFExpansion:
    """A negative continued fraction, all coefficients at most -2."""

    coeffs: tuple

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs:
            raise InvalidExpansionError("expansion needs at least one coefficient")
        if any(c > -2 for c in coeffs):
            raise InvalidExpansionError(
                f"expansion coefficients must be at most -2, got {list(coeffs)}"
            )

    @property
    def stabilization_counts(self) -> tuple:
        return tuple(-(c + 2) for c in self.coeffs)

    @property
    def total_stabilizations(self) -> int:
        return sum(self.stabilization_counts)


@dataclass(frozen=True)
class Component:
    """One knot of a (+/-1)-presentation link.

    ``stabs_pos``/``stabs_neg`` count the zigzags added after the
    push-off.
    """

    index: int
    knot: LegendrianUnknot
    contact_sign: int
    stabs_pos: int = 0
    stabs_neg: int = 0

    @property
    def parent(self) -> Optional[int]:
        """The component this one was pushed off from; the first has none."""
        return self.index - 1 if self.index else None

    @property
    def stabilizations(self) -> int:
        return self.stabs_pos + self.stabs_neg

    @property
    def topological_coefficient(self) -> int:
        return self.knot.tb + self.contact_sign


@dataclass(frozen=True)
class Presentation:
    """An ordered (+/-1)-surgery link replacing one rational contact surgery.

    A presentation is its knot, its coefficient and its stabilization
    signs; ``components`` is derived from them once, on construction, so
    equality and hashing read only those three.
    """

    source_knot: LegendrianUnknot
    source_coefficient: Fraction
    sign_choice: tuple
    components: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        knot = self.source_knot
        coefficient = _as_fraction(self.source_coefficient)
        sign_choice = tuple(self.sign_choice)
        if any(type(s) is not int or s not in (1, -1) for s in sign_choice):
            raise InvalidInputError(f"signs must be +1 or -1, got {list(sign_choice)}")
        plus_count, expansion = _conversion_plan(coefficient)
        needed = expansion.total_stabilizations if expansion is not None else 0
        if len(sign_choice) != needed:
            raise InvalidInputError(
                f"sign vector has length {len(sign_choice)} but this conversion "
                f"stabilizes {needed} times"
            )

        # the (+1) surgeries live on unstabilized push-offs: same tb, same rot
        components = [Component(i, knot, 1) for i in range(plus_count)]
        if expansion is not None:
            current = knot
            start = 0
            for count in expansion.stabilization_counts:
                pos = sign_choice[start:start + count].count(1)
                neg = count - pos
                start += count
                current = LegendrianUnknot(current.tb - count, current.rot + pos - neg)
                components.append(Component(len(components), current, -1, pos, neg))
        object.__setattr__(self, "source_coefficient", coefficient)
        object.__setattr__(self, "sign_choice", sign_choice)
        object.__setattr__(self, "components", tuple(components))

    @property
    def signs_string(self) -> str:
        return signs_string(self.sign_choice)


def signs_string(sign_choice: Sequence[int]) -> str:
    """Stabilization signs as text: ``+`` for +1, ``-`` for -1."""
    return "".join("+" if s > 0 else "-" for s in sign_choice)


def evaluate_cf(coeffs: Sequence[int]) -> Fraction:
    """Evaluate ``[c1, ..., cn] = c1 - 1/(c2 - 1/(... - 1/cn))`` exactly."""
    if not coeffs:
        raise InvalidExpansionError("cannot evaluate an empty expansion")
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        if value == 0:
            raise InvalidExpansionError(
                f"division by zero while evaluating {list(coeffs)}"
            )
        value = c - 1 / value
    return value


def expand_negative(r: Coefficient) -> CFExpansion:
    """Expand r < 0 so that ``evaluate_cf([a1 + 1, a2, ..., an]) == r``.

    The floor-based recursion c = floor(x), x <- 1/(c - x) yields the
    unique expansion of r itself with every tail coefficient at most -2;
    shifting the leading coefficient down by one then accounts for the
    surgery convention above and makes every coefficient at most -2.
    """
    r = Fraction(r)
    if r >= 0:
        raise InvalidInputError(f"only negative coefficients expand (got {r})")
    coeffs = list(_floor_expansion(r))
    coeffs[0] -= 1
    return CFExpansion(tuple(coeffs))


def _floor_expansion(x: Fraction):
    """Yield c = floor(x), then continue with x <- 1/(c - x), until x == c.

    Integer Euclid on x = p/q: with p = c q + rest (0 <= rest < q),
    c - x = -rest/q, so the next x is -q/rest.
    """
    p, q = x.numerator, x.denominator
    while True:
        c, rest = divmod(p, q)
        yield c
        if rest == 0:
            return
        p, q = -q, rest


def _as_fraction(coefficient: Coefficient) -> Fraction:
    try:
        return Fraction(coefficient)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"not an exact rational: {coefficient!r}") from exc


def _peel_plus(coefficient: Fraction) -> tuple:
    """Number of contact (+1) components, and the negative residual if any.

    The peeling step r -> r/(1 - r) takes p/q to p/(q - p): the numerator
    stays and the denominator drops by p.  For p = 1 the steps end at
    1/1, itself one more (+1) component, after q components in all.  For
    p > 1, coprime to q, they pass 1 and end at p/(q mod p - p) < 0 after
    q // p + 1 steps.  A negative coefficient is its own residual.
    """
    p, q = coefficient.numerator, coefficient.denominator
    if p == 0:
        raise ZeroSurgeryError(
            "contact 0-surgery has no (+/-1)-surgery presentation"
        )
    if p < 0:
        return 0, coefficient
    steps, rest = divmod(q, p)
    if rest == 0:
        return q, None
    return steps + 1, Fraction(p, rest - p)


@functools.lru_cache(maxsize=256)
def _conversion_plan(coefficient: Fraction):
    """Number of contact (+1) components, and the chain expansion if any.

    Cached because every branch of one surgery converts the same
    coefficient; the result, an int and a frozen expansion, is immutable.
    """
    plus, residual = _peel_plus(coefficient)
    if residual is None:
        return plus, None
    return plus, expand_negative(residual)


def component_count(coefficient: Coefficient, at_most: int) -> int:
    """Components of any conversion of ``coefficient``, exact up to ``at_most``.

    Every branch has the same number of components.  Above ``at_most``
    some larger number is returned: the (+1) count is closed-form and the
    chain is followed at most one component past the bound, so a
    coefficient such as 1/10^9 or -(10^9 + 1)/10^9, whose conversion
    never ends in practice, is counted in bounded time.
    """
    plus, residual = _peel_plus(_as_fraction(coefficient))
    if residual is None or plus > at_most:
        return plus
    chain = itertools.islice(_floor_expansion(residual), at_most + 1 - plus)
    return plus + sum(1 for _ in chain)


def stabilization_budget(coefficient: Coefficient) -> int:
    """Total stabilizations any conversion of this coefficient must choose signs for."""
    _, expansion = _conversion_plan(_as_fraction(coefficient))
    return expansion.total_stabilizations if expansion is not None else 0


def convert(
    knot: LegendrianUnknot,
    coefficient: Coefficient,
    signs: Sequence[int] = (),
) -> Presentation:
    """Convert contact r-surgery on ``knot`` into one (+/-1)-presentation.

    ``signs`` fixes the stabilization choices, consumed chain-first and
    left to right; its length must equal :func:`stabilization_budget`.
    """
    return Presentation(knot, coefficient, signs)


def enumerate_presentations(
    knot: LegendrianUnknot, coefficient: Coefficient
) -> list:
    """All presentations of one surgery, in plus-first lexicographic sign order.

    The first entry is the all-plus branch; a coefficient with s
    stabilizations yields exactly 2^s presentations.
    """
    coefficient = _as_fraction(coefficient)
    total = stabilization_budget(coefficient)
    return [
        convert(knot, coefficient, choice)
        for choice in itertools.product((1, -1), repeat=total)
    ]


def linking_matrix(presentation: Presentation) -> IntMatrix:
    """The symmetric linking matrix of the presentation link.

    Diagonal entries are the topological surgery coefficients
    (tb + contact sign); the off-diagonal entry for components i < j is
    the tb of component i after its own stabilizations, by the
    parallel-copy rule.
    """
    comps = presentation.components
    tbs = [c.knot.tb for c in comps]
    rows = []
    for i, ci in enumerate(comps):
        # entry j is tb[j] left of the diagonal and tb[i] right of it
        row = tbs[:i]
        row.append(ci.knot.tb + ci.contact_sign)
        row.extend([ci.knot.tb] * (len(comps) - 1 - i))
        rows.append(row)
    return IntMatrix(rows)


def slid_diagonal(presentation: Presentation) -> tuple:
    """Diagonal of the linking matrix after sliding each component over its predecessor.

    The handle slides P (row i of P is e_i - e_{i-1}) turn M, whose
    off-diagonal entries are tb[min(i, j)], into the tridiagonal matrix
    P M P^T of the same determinant.  With t_i the tb and s_i the contact
    sign of component i (1-based, t_0 = s_0 = 0), its diagonal entries are
    (t_i - t_{i-1}) + s_i + s_{i-1} and the entry between components i and
    i + 1 is -s_i, whose square is 1.
    """
    diagonal = []
    tb_prev = sign_prev = 0
    for comp in presentation.components:
        tb, sign = comp.knot.tb, comp.contact_sign
        diagonal.append(tb - tb_prev + sign + sign_prev)
        tb_prev, sign_prev = tb, sign
    return tuple(diagonal)


def linking_vector(presentation: Presentation, ext: ExternalKnot) -> tuple:
    """Linking numbers of the external knot with every component.

    All components are parallel copies of the original surgery knot, and
    stabilization does not change linking numbers, so every entry equals
    the external knot's linking number with the original.
    """
    return tuple(ext.lk_with_original for _ in presentation.components)


def rot_vector(presentation: Presentation) -> tuple:
    """Component-wise rotation numbers, in component order."""
    return tuple(c.knot.rot for c in presentation.components)


def mirror(presentation: Presentation) -> Presentation:
    """The mirror presentation: every rot negated, stabilization signs flipped."""
    return Presentation(
        legendrian.mirror(presentation.source_knot),
        presentation.source_coefficient,
        tuple(-s for s in presentation.sign_choice),
    )
