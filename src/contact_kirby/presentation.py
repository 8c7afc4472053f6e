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
Those counts, one per chain entry, fix the branch's Legendrian class,
so only prod(k_i + 1) of the 2^s branches are distinct links, k_i the
stabilizations of entry i; the branches of one class share one tuple.
:func:`enumerate_presentations` reads each branch's class off one
product of per-entry counts and builds only the first branch of each
class through :func:`convert`, so every other branch costs the same
small constant, whatever its length.
Every component is a push-off of the one before it, so its ``parent`` is
derived from its index, never stored.  Linking numbers inside the
resulting link follow the parallel-copy rule: a push-off taken along the
contact framing links its parent, and every later descendant of it, by
the parent's tb at push-off time.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from fractions import Fraction
from operator import countOf

from . import legendrian
from .errors import (
    InvalidExpansionError,
    InvalidInputError,
    Value,
    ZeroSurgeryError,
    echo_int,
    echo_rational,
)
from .exact import IntMatrix
from .legendrian import ExternalKnot, LegendrianUnknot

Coefficient = int | Fraction

_INT_ONLY = frozenset((int,))
_SIGNS = frozenset((1, -1))
_SIGN_TEXT = {1: "+", -1: "-"}

_set = object.__setattr__


class CFExpansion(Value):
    """A negative continued fraction, all coefficients at most -2."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple):
        coeffs = _int_entries(coeffs)
        if not coeffs:
            raise InvalidExpansionError("expansion needs at least one coefficient")
        if any(c > -2 for c in coeffs):
            raise InvalidExpansionError(
                f"expansion coefficients must be at most -2, got {list(coeffs)}"
            )
        _set(self, "coeffs", coeffs)

    @property
    def stabilization_counts(self) -> tuple:
        return tuple(-(c + 2) for c in self.coeffs)


class Component(Value):
    """One knot of a (+/-1)-presentation link.

    ``stabs_pos``/``stabs_neg`` count the zigzags added after the
    push-off.
    """

    __slots__ = _fields = ("index", "knot", "contact_sign", "stabs_pos", "stabs_neg")

    def __init__(
        self, index: int, knot: LegendrianUnknot, contact_sign: int,
        stabs_pos: int = 0, stabs_neg: int = 0,
    ):
        _set(self, "index", index)
        _set(self, "knot", knot)
        _set(self, "contact_sign", contact_sign)
        _set(self, "stabs_pos", stabs_pos)
        _set(self, "stabs_neg", stabs_neg)

    @property
    def parent(self) -> int | None:
        """The component this one was pushed off from; the first has none."""
        return self.index - 1 if self.index else None

    @property
    def topological_coefficient(self) -> int:
        return self.knot.tb + self.contact_sign


class Presentation(Value):
    """An ordered (+/-1)-surgery link replacing one rational contact surgery.

    A presentation is its knot, its coefficient and its stabilization
    signs; ``components`` is derived from them once, on construction, so
    equality and hashing read only those three.  ``classes``, a dict made
    for one surgery and handed to each of its branches, gives every branch
    of one Legendrian class the components tuple the first one built.
    """

    _fields = ("source_knot", "source_coefficient", "sign_choice")
    __slots__ = _fields + ("components",)

    def __init__(
        self, source_knot: LegendrianUnknot, source_coefficient: Coefficient,
        sign_choice: Sequence[int], classes: dict | None = None,
    ):
        coefficient = _as_fraction(source_coefficient)
        sign_choice = tuple(sign_choice)
        # exact types first: True and 1.0 equal 1 but are not signs
        if not (_INT_ONLY.issuperset(map(type, sign_choice)) and _SIGNS.issuperset(sign_choice)):
            raise InvalidInputError(f"signs must be +1 or -1, got {list(sign_choice)}")
        plus, counts, bounds = _conversion_plan(coefficient.numerator, coefficient.denominator)
        if len(sign_choice) != bounds[-1]:
            raise InvalidInputError(
                f"sign vector has length {echo_int(len(sign_choice))} but this "
                f"conversion stabilizes {echo_int(bounds[-1])} times"
            )
        # the class: how many signs of each chain entry are positive
        chunks = map(slice, bounds, bounds[1:])
        key = tuple(map(countOf, map(sign_choice.__getitem__, chunks), itertools.repeat(1)))
        classes = {} if classes is None else classes
        components = classes.get(key)
        if components is None:
            components = classes[key] = _components(source_knot, plus, counts, key, classes)
        _set(self, "source_knot", source_knot)
        _set(self, "source_coefficient", coefficient)
        _set(self, "sign_choice", sign_choice)
        _set(self, "components", components)

    @property
    def signs_string(self) -> str:
        return signs_string(self.sign_choice)


def _components(knot, plus, counts, positives, classes) -> tuple:
    """The components of one class, each distinct chain knot built once.

    ``classes`` keeps the knots under (tb, rot), which no class key
    equals: a tb is negative, a positive count is not.
    """
    # the (+1) surgeries live on unstabilized push-offs: same tb, same rot
    components = [Component(i, knot, 1) for i in range(plus)]
    tb, rot = knot.tb, knot.rot
    for count, pos in zip(counts, positives):
        tb -= count
        rot += 2 * pos - count
        chain_knot = classes.get((tb, rot))
        if chain_knot is None:
            chain_knot = classes[tb, rot] = LegendrianUnknot(tb, rot)
        components.append(Component(len(components), chain_knot, -1, pos, count - pos))
    return tuple(components)


def _int_entries(coeffs) -> tuple:
    """The entries of an expansion as a tuple, each checked to be exactly an ``int``."""
    coeffs = tuple(coeffs)
    for c in coeffs:
        if type(c) is not int:
            raise InvalidExpansionError(
                f"expansion coefficients must be integers (got type {type(c).__name__})"
            )
    return coeffs


def signs_string(sign_choice: Sequence[int]) -> str:
    """Stabilization signs as text: ``+`` for +1, ``-`` for -1."""
    return "".join(map(_SIGN_TEXT.__getitem__, sign_choice))


def evaluate_cf(coeffs: Sequence[int]) -> Fraction:
    """Evaluate ``[c1, ..., cn] = c1 - 1/(c2 - 1/(... - 1/cn))`` exactly."""
    coeffs = _int_entries(coeffs)
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
    r = _as_fraction(r)
    if r >= 0:
        raise InvalidInputError(
            f"only negative coefficients expand (got {echo_rational(r)})"
        )
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
    """``coefficient`` as a ``Fraction``; it must be exactly an ``int`` or a ``Fraction``.

    A float, a string or a bool is refused, although ``Fraction`` would
    take each: 0.1 is not 1/10, and a bool is not a coefficient.
    """
    if type(coefficient) is Fraction:
        return coefficient
    if type(coefficient) is not int:
        raise InvalidInputError(
            f"a coefficient must be an int or a Fraction (got type {type(coefficient).__name__})"
        )
    return Fraction(coefficient)


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
def _conversion_plan(numerator: int, denominator: int):
    """The (+1) count, the chain's stabilization counts, and the bounds of their signs.

    The bounds are 0 and the running sums of the counts, so the last is
    the stabilization budget.  Cached, and keyed by two ints, which hash
    faster than a ``Fraction``, because every branch of one surgery
    converts the same coefficient.
    """
    plus, residual = _peel_plus(Fraction(numerator, denominator))
    if residual is None:
        return plus, (), (0,)
    counts = expand_negative(residual).stabilization_counts
    return plus, counts, tuple(itertools.accumulate(counts, initial=0))


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
    coefficient = _as_fraction(coefficient)
    return _conversion_plan(coefficient.numerator, coefficient.denominator)[2][-1]


def convert(
    knot: LegendrianUnknot,
    coefficient: Coefficient,
    signs: Sequence[int] = (),
    classes: dict | None = None,
) -> Presentation:
    """Convert contact r-surgery on ``knot`` into one (+/-1)-presentation.

    ``signs`` fixes the stabilization choices, consumed chain-first and
    left to right; its length must equal :func:`stabilization_budget`.
    ``classes`` is shared by the branches of one surgery only.
    """
    return Presentation(knot, coefficient, signs, classes)


def enumerate_presentations(
    knot: LegendrianUnknot, coefficient: Coefficient
) -> list:
    """All presentations of one surgery, in plus-first lexicographic sign order.

    The first entry is the all-plus branch; a coefficient with s
    stabilizations yields exactly 2^s presentations.  In this order the
    class keys are the product of each chain entry's positive counts over
    its own signs, so no branch counts its signs.  The first branch of
    each class goes through :func:`convert`; every later one is given the
    class's components tuple as it is.  The class table lives only as
    long as this call.
    """
    coefficient = _as_fraction(coefficient)
    _, counts, bounds = _conversion_plan(coefficient.numerator, coefficient.denominator)
    keys = itertools.product(*map(_positive_counts, counts))
    classes = {}
    presentations = []
    for choice, key in zip(itertools.product((1, -1), repeat=bounds[-1]), keys):
        components = classes.get(key)
        if components is None:
            presentations.append(convert(knot, coefficient, choice, classes))
            continue
        pres = object.__new__(Presentation)
        _set(pres, "source_knot", knot)
        _set(pres, "source_coefficient", coefficient)
        _set(pres, "sign_choice", choice)
        _set(pres, "components", components)
        presentations.append(pres)
    return presentations


@functools.lru_cache(maxsize=64)
def _positive_counts(count: int) -> tuple:
    """The positive signs of each of the 2^count sign vectors of one chain entry.

    In plus-first order.  A tuple, which ``itertools.product`` keeps as it
    is, where it would copy a list.  Cached, since a screen asks for the
    same few counts again and again; under the CLI's 2^16 branch cap a
    count is at most 16.
    """
    return tuple(map(countOf, itertools.product((1, -1), repeat=count), itertools.repeat(1)))


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
