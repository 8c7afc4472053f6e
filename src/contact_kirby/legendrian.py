"""Legendrian unknots in the standard tight 3-sphere.

A Legendrian unknot is determined up to Legendrian isotopy by two
integers, the Thurston-Bennequin number ``tb`` and the rotation number
``rot``.  A pair is realizable exactly when

* ``tb <= -1``  (no unknot in a tight structure reaches tb 0),
* ``tb + |rot| <= -1``  (the Bennequin inequality), and
* ``rot = tb + 1 (mod 2)``  (front projections force the parity).

The constructor checks all three, so every :class:`LegendrianUnknot`
is realizable; an invalid pair raises naming the condition it fails.
Contact framing n on an unknot with tb = -m is topological framing
n - m, which :func:`kirby_topological_condition` tests for +/-1.
"""

from __future__ import annotations

from .errors import InvalidInputError, InvalidLegendrianError, Value, echo_int, echo_value

_set = object.__setattr__


def _check_invariants(tb: int, rot: int) -> None:
    # exact types: a bool or a float equal to an integer is not one
    if type(tb) is not int or type(rot) is not int:
        raise InvalidLegendrianError(
            f"tb and rot must be integers (got types {type(tb).__name__} "
            f"and {type(rot).__name__})"
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


class LegendrianUnknot(Value):
    """A Legendrian unknot, identified by its classical invariants."""

    __slots__ = _fields = ("tb", "rot")

    def __init__(self, tb: int, rot: int):
        _check_invariants(tb, rot)
        _set(self, "tb", tb)
        _set(self, "rot", rot)


class ExternalKnot(Value):
    """A Legendrian unknot outside the surgery link, with its linking number."""

    __slots__ = _fields = ("knot", "lk_with_original")

    def __init__(self, knot: LegendrianUnknot, lk_with_original: int):
        if type(knot) is not LegendrianUnknot:
            raise InvalidInputError(
                f"a knot must be a LegendrianUnknot (got type {type(knot).__name__})"
            )
        # exact type, as for tb and rot: a bool or a float is not a linking number
        if type(lk_with_original) is not int:
            raise InvalidInputError(
                f"lk must be an integer (got type {type(lk_with_original).__name__})"
            )
        _set(self, "knot", knot)
        _set(self, "lk_with_original", lk_with_original)


def stabilize(knot: LegendrianUnknot, sign: int) -> LegendrianUnknot:
    """Add one zigzag: tb drops by one and rot moves by ``sign``.

    Stabilization preserves validity, so the result never raises.
    """
    if type(sign) is not int or sign not in (1, -1):
        raise InvalidInputError(f"stabilization sign must be +1 or -1, got {echo_value(sign)}")
    return LegendrianUnknot(knot.tb - 1, knot.rot + sign)


def mirror(knot: LegendrianUnknot) -> LegendrianUnknot:
    """The mirror unknot: rot flips sign, tb is unchanged."""
    return LegendrianUnknot(knot.tb, -knot.rot)


def kirby_topological_condition(m: int, n: int) -> int | None:
    """Decide whether contact n-surgery on a tb = -m unknot is topologically (+/-1)-surgery.

    Returns +1 when n = m + 1, -1 when n = m - 1, and None otherwise; only
    those two framings make the surgery a topological Kirby move of type 1.
    """
    # exact types: 3.0 equals 3 but is not a framing, and True is not an m
    if type(m) is not int or type(n) is not int:
        raise InvalidInputError(
            f"m and n must be integers (got types {type(m).__name__} and {type(n).__name__})"
        )
    if m < 1:
        raise InvalidInputError(f"m must be at least 1 (got {echo_int(m)})")
    if n == m + 1:
        return 1
    if n == m - 1:
        return -1
    return None
