"""Exception taxonomy shared by the whole package, with the rules by
which messages echo their input and the base of the package's values.

Callers need two distinctions: bad input (the CLI maps these to exit
code 2) and exact-arithmetic impossibilities (exit code 3).
"""

# a message writes an integer of more than 20 digits as its digit count
_ECHOED_BELOW = 10 ** 20


def echo_int(value: int) -> str:
    """``value`` as a message writes it: in full up to 20 digits.

    A longer value is written as "a D-digit integer" (or "a negative
    D-digit integer"), so an out-of-range input cannot make its message
    thousands of characters long.
    """
    size = abs(value)
    if size < _ECHOED_BELOW:
        return str(value)
    # 0.30102 < log10(2), so this starts at or below the digit count
    digits = (size.bit_length() - 1) * 30102 // 100000 + 1
    while 10 ** digits <= size:
        digits += 1
    return f"a {'negative ' if value < 0 else ''}{digits}-digit integer"


def echo_rational(value) -> str:
    """A ``Fraction`` as a message writes it: each part by :func:`echo_int`."""
    text = echo_int(value.numerator)
    return text if value.denominator == 1 else f"{text}/{echo_int(value.denominator)}"


# a message writes a text of more than 20 characters as its start and length
_ECHOED_CHARS = 20


def echo_text(text: str, show=repr, limit=_ECHOED_CHARS) -> str:
    """``show(text)`` as a message writes it: in full up to ``limit`` characters.

    A longer text is written as ``show`` of its first ``limit`` characters
    and its length, as in ``'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)``,
    so an out-of-range input cannot make its message thousands of
    characters long.
    """
    if len(text) <= limit:
        return show(text)
    return f"{show(text[:limit])}... ({len(text)} characters)"


class Value:
    """An immutable value whose equality, hash and repr come from ``_fields``.

    A subclass lists its fields in ``__slots__`` and ``_fields`` and sets
    each one in ``__init__`` with ``object.__setattr__``; after that, any
    assignment or deletion raises ``AttributeError``.  A value equals only
    a value of its own class with equal fields, and prints as
    ``Name(field=value, ...)``.  Copy and pickle rebuild it through the
    constructor, which checks the fields again.  It stands in for
    ``@dataclass(frozen=True)``, whose module imports ``inspect`` and so
    would slow the start of every command.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls._fields

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._key()


class InvalidInputError(ValueError):
    """Malformed or out-of-domain input."""


class InvalidLegendrianError(InvalidInputError):
    """A (tb, rot) pair violates the Legendrian unknot invariants."""


class InvalidExpansionError(InvalidInputError):
    """A continued fraction that cannot be evaluated or produced."""


class ZeroSurgeryError(InvalidInputError):
    """Contact 0-surgery admits no (+/-1)-surgery presentation."""


class GateRejectionError(InvalidInputError):
    """A candidate diagram failed a necessary condition.

    ``condition`` names the first condition that failed, so callers can
    distinguish rejections without parsing the message.
    """

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


class SingularMatrixError(ArithmeticError):
    """The linking matrix is not invertible."""


class NonIntegralInvariantError(ArithmeticError):
    """A transformed invariant came out non-integral.

    The exact rational result is kept on ``value`` instead of being
    rounded; rounding would silently fabricate an invariant.
    """

    def __init__(self, message: str, value):
        super().__init__(message)
        self.value = value
