"""Exact scalars and dense matrix algebra over the integers and rationals.

Every quantity in this package is an integer or a reduced fraction; no
floating point appears anywhere.  The scalar type is
:class:`fractions.Fraction` (reduced numerator/denominator, positive
denominator, zero stored as 0/1).  :class:`IntMatrix` and
:class:`RationalMatrix` are immutable values on :class:`errors.Value`.

Matrices are small and dense, so determinants and inverses use
fraction-free (Bareiss) elimination: every intermediate value is an
integer minor of the input, each division is exact, and Python's
arbitrary-precision integers absorb the entry growth.  That holds for
integer entries only, so :func:`det` and :func:`invert` take an
:class:`IntMatrix` and refuse any other matrix.  The cofactor
expansion route is deliberately *not* implemented here; it lives in the
test suite as an independent oracle.

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
    _coerce = Fraction


def _eliminate(a: list, n: int) -> int:
    """Fraction-free (Bareiss) forward pass over the first n columns of ``a``.

    ``a`` is a list of n integer rows, possibly wider than n (``[M | I]``);
    it is reduced in place to upper-triangular form.  After step k every
    entry is a (k+1)x(k+1) minor of the input, so the division by the
    previous pivot is exact and everything stays an integer.  Returns the
    sign of the row permutation used, or 0 when some column has no
    nonzero pivot (the leading n x n block is singular).
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
        for i in range(k + 1, n):
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
    """Exact inverse: fraction-free elimination, then rational back-substitution.

    The forward pass runs Bareiss elimination on ``[M | I]``, leaving an
    integer upper-triangular system.  Back-substitution keeps each partial
    solution column over a single shared integer denominator (the product
    of the pivots consumed so far), so only the final entries are reduced.
    """
    a = _rows(matrix, "invert")
    n = len(a)
    width = 2 * n
    for i, row in enumerate(a):
        row.extend(1 if i == j else 0 for j in range(n))
    if _eliminate(a, n) == 0:
        raise SingularMatrixError("matrix is singular, no inverse exists")

    columns = []
    for c in range(n, width):
        num = [0] * n
        den = 1
        for i in range(n - 1, -1, -1):
            row_i = a[i]
            s = row_i[c] * den
            for j in range(i + 1, n):
                s -= row_i[j] * num[j]
            pivot = row_i[i]
            num = [v * pivot for v in num]
            num[i] = s
            den *= pivot
        columns.append([Fraction(v, den) for v in num])
    return RationalMatrix(
        [[columns[j][i] for j in range(n)] for i in range(n)]
    )


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


def apply(matrix, vector: Sequence[int | Fraction]) -> tuple:
    """Exact matrix-vector product, returned as a tuple of Fractions."""
    rows = matrix.entries
    v = tuple(vector)
    if len(v) != len(rows):
        raise InvalidInputError(
            f"dimension mismatch: matrix is {len(rows)}x{len(rows)}, vector has length {len(v)}"
        )
    return tuple(
        sum((Fraction(rij) * vj for rij, vj in zip(row, v)), start=Fraction(0))
        for row in rows
    )


def inner(u: Sequence[int | Fraction], w: Sequence[int | Fraction]) -> Fraction:
    """Exact dot product of two equal-length vectors."""
    u = tuple(u)
    w = tuple(w)
    if len(u) != len(w):
        raise InvalidInputError(
            f"dimension mismatch: vectors have lengths {len(u)} and {len(w)}"
        )
    return sum((Fraction(a) * b for a, b in zip(u, w)), start=Fraction(0))
