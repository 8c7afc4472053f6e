"""Exception taxonomy shared by the whole package.

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


class InvalidInputError(ValueError):
    """Malformed or out-of-domain input."""


class InvalidLegendrianError(InvalidInputError):
    """A (tb, rot) pair violates the Legendrian unknot invariants."""


class UnsupportedFramingError(InvalidInputError):
    """A framing coefficient that no embedded curve realizes here."""


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
