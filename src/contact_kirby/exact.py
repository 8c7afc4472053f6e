"""Exact scalars and dense matrix algebra over the integers and rationals.

Every quantity in this package is an integer or a reduced fraction; no
floating point appears anywhere.  The scalar type is
:class:`fractions.Fraction` (reduced numerator/denominator, positive
denominator, zero stored as 0/1).  :class:`IntMatrix` and
:class:`RationalMatrix` are immutable values on :class:`errors.Value`.

Matrices are small and dense, so determinants and inverses use
fraction-free (Bareiss) elimination: every intermediate value is, up to
sign, an integer minor of the input, each division is exact, and
Python's arbitrary-precision integers absorb the entry growth.  That
holds for integer entries only, so :func:`det` and :func:`invert` take
an :class:`IntMatrix` and refuse any other matrix.  :func:`det` runs the
forward pass; :func:`invert` runs the same recurrence above each pivot
too (the Gauss-Jordan form), which leaves d * M^-1 beside the pivots, d
the last pivot, so one division per entry gives the inverse.  The
cofactor expansion route is deliberately *not* implemented here; it
lives in the test suite as an independent oracle.

Tridiagonal matrices whose off-diagonal entries are +/-1 need none of
that: :func:`continuants` gets every trailing minor from a three-term
integer recurrence in linear time.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .errors import InvalidInputError, SingularMatrixError, Value, echo_text


def _as_int(value) -> int:
    if type(value) is not int:
        raise InvalidInputError(
            f"matrix entries must be integers, got {echo_text(repr(value), str)}"
        )
    return value


def _as_fraction(value, what: str = "matrix") -> Fraction:
    """An ``int`` as its ``Fraction``, a ``Fraction`` as it is; anything else is refused.

    The types are exact: ``0.1`` would hold its binary approximation, a
    string whatever ``Fraction`` parses from it, and ``True`` would be 1.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    raise InvalidInputError(
        f"{what} entries must be integers or Fractions, got {echo_text(repr(value), str)}"
    )


class _SquareMatrix(Value):
    """Immutable square matrix; a subclass sets how each entry is coerced.

    A value of one field, ``entries``, the rows as tuples.  Equality is
    type-strict: an IntMatrix never equals a RationalMatrix.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int | Fraction]]):
        coerce = self._coerce
        entries = tuple(tuple(coerce(x) for x in row) for row in entries)
        if not entries:
            raise InvalidInputError("matrix needs at least one row")
        if any(len(row) != len(entries) for row in entries):
            raise InvalidInputError("matrix must be square")
        object.__setattr__(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({[list(row) for row in self.entries]})"


class IntMatrix(_SquareMatrix):
    """Immutable square matrix with arbitrary-precision integer entries."""

    __slots__ = ()
    _coerce = staticmethod(_as_int)


class RationalMatrix(_SquareMatrix):
    """Immutable square matrix with exact rational entries."""

    __slots__ = ()
    _coerce = staticmethod(_as_fraction)


def _eliminate(a: list, n: int, every_row=False) -> int:
    """Fraction-free (Bareiss) elimination over the first n columns of ``a``.

    ``a`` is a list of n integer rows, possibly wider than n (``[M | I]``),
    reduced in place.  Step k takes the pivot ``a[k][k]``; if it is 0, the
    first row below with a nonzero entry in column k is swapped up.  It
    then clears column k in each row below the pivot or, with
    ``every_row``, in each row but the pivot's (the Gauss-Jordan form),
    updating the columns right of k.  After step k each entry so updated
    is, up to sign, a (k+1)x(k+1) minor of ``a`` as given, so the division
    by the previous pivot is exact and everything stays an integer.  The
    pivots are the forward pass's either way, and the last is d, the
    determinant of the row-swapped leading block M.  With ``every_row``
    the columns past n, B say, end as d * M^-1 * B: on ``[M | I]``, as
    d * M^-1.  Returns the sign of the row permutation, or 0 when some
    column has no nonzero pivot (M is singular).
    """
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        row_k = a[k]
        for i in range(0 if every_row else k + 1, n):
            if i == k:
                continue
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign


def _rows(matrix: IntMatrix, name: str) -> list:
    """The rows of ``matrix`` as lists, which the elimination works on in place.

    Bareiss divides with ``//``, exact on integer minors only, so any
    matrix but an :class:`IntMatrix` (a :class:`RationalMatrix` too) is
    refused rather than answered wrongly.
    """
    if not isinstance(matrix, IntMatrix):
        raise InvalidInputError(f"{name} takes an IntMatrix, got {type(matrix).__name__}")
    return [list(row) for row in matrix.entries]


def det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    The last pivot of the elimination is the determinant up to the sign
    of the row swaps.
    """
    a = _rows(matrix, "det")
    n = len(a)
    return _eliminate(a, n) * a[n - 1][n - 1]


def invert(matrix: IntMatrix) -> RationalMatrix:
    """Exact inverse by one fraction-free (Bareiss) pass in Gauss-Jordan form.

    The elimination clears every row of ``[M | I]`` but the pivot's, which
    leaves d * M^-1 in the right block, d the last pivot; each entry over
    d is an entry of the inverse.
    """
    a = _rows(matrix, "invert")
    n = len(a)
    for i, row in enumerate(a):
        row.extend(1 if i == j else 0 for j in range(n))
    if _eliminate(a, n, every_row=True) == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")
    d = a[n - 1][n - 1]
    return RationalMatrix([[Fraction(x, d) for x in row[n:]] for row in a])


def continuants(diagonal: Sequence[int]) -> tuple[int, ...]:
    """Trailing continuants of a tridiagonal matrix whose off-diagonal squares are 1.

    For diagonal ``(a_1, ..., a_n)`` this returns ``(theta_1, ..., theta_n,
    theta_{n+1})`` with ``theta_{n+1} = 1``, ``theta_{n+2} = 0`` and
    ``theta_k = a_k * theta_{k+1} - theta_{k+2}``: ``theta_k`` is the
    determinant of the trailing block on rows and columns k..n, so
    ``theta_1`` is the determinant of the whole matrix.  Integer
    arithmetic only, no division, so a zero in the middle of the
    sequence needs no pivoting.
    """
    thetas = [0, 1]  # theta_{n+2}, theta_{n+1}, then built back to front
    for a in reversed(diagonal):
        thetas.append(a * thetas[-1] - thetas[-2])
    return tuple(reversed(thetas[1:]))


def apply(matrix: IntMatrix | RationalMatrix, vector: Sequence[int | Fraction]) -> tuple:
    """Exact matrix-vector product, returned as a tuple of Fractions.

    The matrix is an :class:`IntMatrix` or a :class:`RationalMatrix`;
    anything else is refused by its type name.
    """
    if not isinstance(matrix, _SquareMatrix):
        raise InvalidInputError(
            f"apply takes an IntMatrix or a RationalMatrix, got {type(matrix).__name__}"
        )
    rows = matrix.entries
    v = [_as_fraction(x, "vector") for x in vector]
    if len(v) != len(rows):
        raise InvalidInputError(
            f"dimension mismatch: matrix is {len(rows)}x{len(rows)}, vector has length {len(v)}"
        )
    return tuple(
        sum((rij * vj for rij, vj in zip(row, v)), start=Fraction(0)) for row in rows
    )


def inner(u: Sequence[int | Fraction], w: Sequence[int | Fraction]) -> Fraction:
    """Exact dot product of two equal-length vectors."""
    u = [_as_fraction(x, "vector") for x in u]
    w = [_as_fraction(x, "vector") for x in w]
    if len(u) != len(w):
        raise InvalidInputError(
            f"dimension mismatch: vectors have lengths {len(u)} and {len(w)}"
        )
    return sum((a * b for a, b in zip(u, w)), start=Fraction(0))
