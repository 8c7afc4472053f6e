"""Legendrian unknots in the standard tight 3-sphere.

A Legendrian unknot is determined up to Legendrian isotopy by two
integers, the Thurston-Bennequin number ``tb`` and the rotation number
``rot``.  A pair is realizable exactly when

* ``tb <= -1``  (no unknot in a tight structure reaches tb 0),
* ``tb + |rot| <= -1``  (the Bennequin inequality), and
* ``rot = tb + 1 (mod 2)``  (front projections force the parity).

Framing curves on the boundary torus of a tubular neighborhood are
written in the (Seifert longitude, meridian) basis.  The contact
longitude is always the derived curve ``longitude + tb * meridian``; it
is never stored, so there is a single source of truth for framings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import (
    InvalidInputError,
    InvalidLegendrianError,
    UnsupportedFramingError,
    echo_int,
)

Coefficient = Union[int, Fraction]


def _check_invariants(tb: int, rot: int) -> None:
    # exact types: a bool or a float equal to an integer is not one
    if type(tb) is not int or type(rot) is not int:
        raise InvalidLegendrianError(
            f"tb and rot must be integers (got tb={tb!r}, rot={rot!r})"
        )
    if tb > -1:
        raise InvalidLegendrianError(
            f"tb must be at most -1 for a Legendrian unknot (got tb={echo_int(tb)})"
        )
    if tb + abs(rot) > -1:
        raise InvalidLegendrianError(
            f"Bennequin inequality tb + |rot| <= -1 fails ({_shown(tb, rot)})"
        )
    if (rot - tb - 1) % 2 != 0:
        raise InvalidLegendrianError(
            f"parity rot = tb + 1 (mod 2) fails ({_shown(tb, rot)})"
        )


def _shown(tb: int, rot: int) -> str:
    return f"tb={echo_int(tb)}, rot={echo_int(rot)}"


@dataclass(frozen=True)
class LegendrianUnknot:
    """A Legendrian unknot, identified by its classical invariants."""

    tb: int
    rot: int

    def __post_init__(self):
        _check_invariants(self.tb, self.rot)


@dataclass(frozen=True)
class FramingCurve:
    """An embedded curve on the boundary torus, in (longitude, meridian) coordinates."""

    lambda_coeff: int
    mu_coeff: int

    def __post_init__(self):
        if gcd(abs(self.lambda_coeff), abs(self.mu_coeff)) != 1:
            raise InvalidInputError(
                f"({self.lambda_coeff}, {self.mu_coeff}) is not primitive, the curve is not embedded"
            )


@dataclass(frozen=True)
class ExternalKnot:
    """A Legendrian unknot outside the surgery link, with its linking number."""

    knot: LegendrianUnknot
    lk_with_original: int


def validate_unknot(tb: int, rot: int) -> LegendrianUnknot:
    """Return the Legendrian unknot (tb, rot), or raise naming the failed invariant."""
    return LegendrianUnknot(tb, rot)


def stabilize(knot: LegendrianUnknot, sign: int) -> LegendrianUnknot:
    """Add one zigzag: tb drops by one and rot moves by ``sign``.

    Stabilization preserves validity, so the result never raises.
    """
    if type(sign) is not int or sign not in (1, -1):
        raise InvalidInputError(f"stabilization sign must be +1 or -1, got {sign}")
    return LegendrianUnknot(knot.tb - 1, knot.rot + sign)


def mirror(knot: LegendrianUnknot) -> LegendrianUnknot:
    """The mirror unknot: rot flips sign, tb is unchanged."""
    return LegendrianUnknot(knot.tb, -knot.rot)


def contact_framing_curve(knot: LegendrianUnknot, n: Coefficient) -> FramingCurve:
    """The contact framing-n curve, written against the Seifert longitude.

    Contact framing n means ``contact_longitude + n * meridian``; expanding
    the contact longitude gives ``longitude + (n + tb) * meridian``.  Only
    integral n is a single embedded curve.
    """
    n = Fraction(n)
    if n.denominator != 1:
        raise UnsupportedFramingError(
            f"framing {n} is not integral, no single curve represents it"
        )
    return FramingCurve(1, int(n) + knot.tb)


def topological_coefficient(knot: LegendrianUnknot, r: Coefficient) -> Fraction:
    """Translate a contact surgery coefficient to the Seifert-framed one: r + tb."""
    return Fraction(r) + knot.tb


def kirby_topological_condition(m: int, n: int) -> Optional[int]:
    """Decide whether contact n-surgery on a tb = -m unknot is topologically (+/-1)-surgery.

    Returns +1 when n = m + 1, -1 when n = m - 1, and None otherwise; only
    those two framings make the surgery a topological Kirby move of type 1.
    """
    if m < 1:
        raise InvalidInputError(f"m must be at least 1 (got {echo_int(m)})")
    if n == m + 1:
        return 1
    if n == m - 1:
        return -1
    return None
