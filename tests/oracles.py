"""Independent reference implementations used only as test oracles.

Nothing here may import the algebra it checks: determinants come from
cofactor expansion, inverses from the adjugate, linear solves from
plain Fraction Gaussian elimination, and continued fractions from the
convergent recurrence or by back-evaluation.  Slow is fine; independent
is the point.
"""

from fractions import Fraction


def cofactor_det(rows):
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def adjugate_inverse(rows):
    """Inverse as adjugate over determinant, entries as Fractions."""
    n = len(rows)
    d = cofactor_det(rows)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    if n == 1:
        return [[Fraction(1, d)]]
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            minor = [
                row[:i] + row[i + 1:]
                for k, row in enumerate(rows)
                if k != j
            ]
            out_row.append(Fraction((-1) ** (i + j) * cofactor_det(minor), d))
        out.append(out_row)
    return out


def gauss_solve(rows, rhs):
    """Solve A x = b by Fraction Gaussian elimination with partial pivoting."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n + 1):
                a[i][j] -= factor * a[k][j]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = a[i][n] - sum(a[i][j] * x[j] for j in range(i + 1, n))
        x[i] = s / a[i][i]
    return x


def cf_convergent_value(coeffs):
    """Value of c1 - 1/(c2 - 1/(...)) via the convergent recurrence."""
    p_prev, p = 1, coeffs[0]
    q_prev, q = 0, 1
    for c in coeffs[1:]:
        p_prev, p = p, c * p - p_prev
        q_prev, q = q, c * q - q_prev
    return Fraction(p, q)


def cf_back_value(coeffs):
    """Value of c1 - 1/(c2 - 1/(...)) evaluated from the last entry back.

    A tail that evaluates to zero raises ``ZeroDivisionError``.
    """
    value = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        value = c - 1 / value
    return value


def chain_family_matrix(m):
    """Closed-form linking matrix of the plus-branch (m+1)-surgery family.

    (m+1) x (m+1): corner -m+1, first row and column -m, chain diagonal
    -m-2, remaining entries -m-1.
    """
    size = m + 1
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == 0 and j == 0:
                row.append(-m + 1)
            elif i == 0 or j == 0:
                row.append(-m)
            elif i == j:
                row.append(-m - 2)
            else:
                row.append(-m - 1)
        rows.append(row)
    return rows


def chain_family_inverse(m):
    """Closed-form inverse of :func:`chain_family_matrix`.

    Corner m*m + m + 1, first row and column -m, zero diagonal, ones
    elsewhere.
    """
    size = m + 1
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i == 0 and j == 0:
                row.append(m * m + m + 1)
            elif i == 0 or j == 0:
                row.append(-m)
            elif i == j:
                row.append(0)
            else:
                row.append(1)
        rows.append(row)
    return rows
