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


def slid_diagonal(rows):
    """Diagonal of P M P^T, row i of P equal to e_i - e_{i-1}, read off the entries of M.

    P slides each component over its predecessor; entry i is
    M[i][i] - 2 M[i][i-1] + M[i-1][i-1], and entry 0 is M[0][0].
    """
    return [rows[0][0]] + [
        rows[i][i] - 2 * rows[i][i - 1] + rows[i - 1][i - 1] for i in range(1, len(rows))
    ]


def solve_terms(rows, signs, tb, rot):
    """``(theta_1, theta_2, offset, weights)`` of a presentation, entry by entry.

    ``rows`` is the linking matrix M, ``signs`` the contact signs of the
    components, and ``tb`` and ``rot`` the surgery knot's.  M has
    off-diagonal entries t[min(i, j)], t the tbs, so the handle slides P
    (:func:`slid_diagonal`) make P M P^T tridiagonal, with diagonal
    a_i = (t_i - t_{i-1}) + s_i + s_{i-1} (1-based, t_0 = s_0 = 0) and
    entry b_i = -s_i between components i and i + 1.  Its trailing
    continuants

        theta_{n+1} = 1,  theta_{n+2} = 0,  theta_k = a_k theta_{k+1} - b_k^2 theta_{k+2}

    are the determinants of its trailing blocks, theta_1 = det M.  Every
    entry of the linking column L is one lk, so P L = lk e_1, and solving
    the chain for e_1 gives

        <L, M^-1 L> = lk^2 theta_2 / theta_1
        <C, M^-1 L> = lk sum_k (r_k - r_{k-1}) (-b_1) ... (-b_{k-1}) theta_{k+1} / theta_1

    for the rots r_k (r_0 = 0).  The step r_1 - r_0 holds the knot's
    rot, a (+1) component steps by nothing, and a (-1) component with
    ``count`` = t_{k-1} - t_k stabilizations (the knot's tb in place of
    t_0) steps by 2 pos - count for its ``pos`` positive ones.  So the
    sum is ``offset`` plus the dot product of the positive counts of the
    (-1) components with ``weights``.
    """
    n = len(rows)
    diagonal = slid_diagonal(rows)
    # b_i between components i and i + 1, 0-based, from the entries of M
    above = [0] * (n + 1)
    for i in range(n - 1):
        before = rows[i - 1][i + 1] - rows[i - 1][i] if i else 0
        above[i] = rows[i][i + 1] - rows[i][i] - before
    thetas = [0, 1]  # theta_{n+2}, theta_{n+1}, then built back to front
    for i in range(n - 1, -1, -1):
        thetas.append(diagonal[i] * thetas[-1] - above[i] ** 2 * thetas[-2])
    thetas.reverse()  # theta_1, ..., theta_{n+2}
    offset, weights, product, tb_before = rot * thetas[1], [], 1, tb
    for i in range(n):
        tb_here = rows[i][i] - signs[i]
        if signs[i] == -1:
            term = product * thetas[i + 1]
            offset -= (tb_before - tb_here) * term
            weights.append(2 * term)
        product, tb_before = -above[i] * product, tb_here
    return thetas[0], thetas[1], offset, tuple(weights)


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
