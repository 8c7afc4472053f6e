"""Exact scalar and matrix algebra, checked against independent oracles."""

import random
from fractions import Fraction

import pytest

from contact_kirby.errors import InvalidInputError, SingularMatrixError
from contact_kirby.exact import (
    IntMatrix,
    RationalMatrix,
    apply,
    continuants,
    det,
    inner,
    invert,
)

from oracles import adjugate_inverse, chain_family_inverse, chain_family_matrix, cofactor_det

M2 = IntMatrix([[-1, -2, -2], [-2, -4, -3], [-2, -3, -4]])
M1 = IntMatrix([[0, -1], [-1, -3]])


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def random_int_matrix(rng, n, bound=9):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )


# Bareiss divides with ``//``, so on the first two, elimination without
# the type check answered det -1 (truly -5/6) and det 0 (truly 1/5)
NOT_INT_MATRICES = [
    RationalMatrix([[Fraction(1, 2), 1], [1, Fraction(1, 3)]]),
    RationalMatrix([[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]),
    RationalMatrix([[2, 1], [1, 3]]),
    ((1, 0), (0, 1)),
]


class TestDet:
    @pytest.mark.parametrize("matrix", NOT_INT_MATRICES)
    def test_refuses_anything_but_an_int_matrix(self, matrix):
        with pytest.raises(InvalidInputError) as caught:
            det(matrix)
        assert str(caught.value) == f"det takes an IntMatrix, got {type(matrix).__name__}"

    def test_chain_matrix_m2(self):
        assert det(M2) == 1
        assert cofactor_det([list(r) for r in M2.entries]) == 1

    def test_chain_matrix_m1(self):
        assert det(M1) == -1

    def test_identity(self):
        assert det(IntMatrix(identity(5))) == 1

    def test_zero_column(self):
        assert det(IntMatrix([[0, 1], [0, 2]])) == 0

    def test_matches_cofactor_oracle(self):
        rng = random.Random(31337)
        for _ in range(200):
            n = rng.randint(1, 6)
            matrix = random_int_matrix(rng, n)
            assert det(matrix) == cofactor_det([list(r) for r in matrix.entries])


class TestInvert:
    @pytest.mark.parametrize("matrix", NOT_INT_MATRICES)
    def test_refuses_anything_but_an_int_matrix(self, matrix):
        with pytest.raises(InvalidInputError) as caught:
            invert(matrix)
        assert str(caught.value) == f"invert takes an IntMatrix, got {type(matrix).__name__}"

    def test_inverse_of_an_inverse_needs_an_int_matrix(self):
        inverse = invert(IntMatrix([[2, 1], [1, 3]]))
        assert inverse == NOT_INT_MATRICES[1]
        with pytest.raises(InvalidInputError, match="got RationalMatrix"):
            det(inverse)

    def test_chain_matrix_m2(self):
        assert invert(M2) == RationalMatrix([[7, -2, -2], [-2, 0, 1], [-2, 1, 0]])

    def test_chain_matrix_m1(self):
        assert invert(M1) == RationalMatrix([[3, -1], [-1, 0]])

    def test_one_by_one(self):
        assert invert(IntMatrix([[2]])) == RationalMatrix([[Fraction(1, 2)]])

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            invert(IntMatrix([[1, 2], [2, 4]]))

    def test_matches_adjugate_oracle(self):
        rng = random.Random(777)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 5)
            matrix = random_int_matrix(rng, n, bound=6)
            if det(matrix) == 0:
                continue
            expected = adjugate_inverse([list(r) for r in matrix.entries])
            assert invert(matrix) == RationalMatrix(expected)
            checked += 1

    def test_inverse_times_matrix_is_identity(self):
        # columns of invert(M) @ M, via apply, must be the standard basis
        rng = random.Random(90210)
        checked = 0
        while checked < 500:
            n = rng.randint(1, 12)
            matrix = random_int_matrix(rng, n)
            if det(matrix) == 0:
                continue
            minv = invert(matrix)
            for j in range(n):
                column = apply(minv, [row[j] for row in matrix.entries])
                assert column == tuple(
                    Fraction(1 if i == j else 0) for i in range(n)
                )
            checked += 1

    def test_closed_form_family_far_past_machine_width(self):
        # intermediate denominators here are hundreds of digits long;
        # any fixed-width arithmetic would have overflowed long before
        m = 200
        matrix = IntMatrix(chain_family_matrix(m))
        assert invert(matrix) == RationalMatrix(chain_family_inverse(m))


class TestApply:
    def test_chain_inverse_m2(self):
        minv = invert(M2)
        assert apply(minv, (1, 1, 1)) == (Fraction(3), Fraction(-1), Fraction(-1))

    def test_identity(self):
        eye = RationalMatrix(identity(4))
        assert apply(eye, (5, -3, 2, 0)) == (
            Fraction(5),
            Fraction(-3),
            Fraction(2),
            Fraction(0),
        )

    def test_chain_inverse_m3(self):
        minv = invert(IntMatrix(chain_family_matrix(3)))
        assert apply(minv, (1, 1, 1, 1)) == (
            Fraction(4),
            Fraction(-1),
            Fraction(-1),
            Fraction(-1),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            apply(invert(M1), (1, 2, 3))


class TestInner:
    def test_rotation_column_m2(self):
        assert inner((-1, 0, 0), (3, -1, -1)) == Fraction(-3)

    def test_trivial(self):
        assert inner((1, 1), (1, 1)) == Fraction(2)

    def test_chain_rotation_formula_m2(self):
        m = 2
        c = tuple([1 - m] + [2 - m] * m)
        solved = apply(invert(IntMatrix(chain_family_matrix(m))), (1,) * (m + 1))
        assert inner(c, solved) == 1 - 2 * m

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            inner((1, 2), (1, 2, 3))


class TestMatrixTypes:
    def test_int_matrix_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            IntMatrix([[1, 2], [3, 4], [5, 6]])

    def test_int_matrix_rejects_non_integers(self):
        with pytest.raises(InvalidInputError):
            IntMatrix([[Fraction(1, 2)]])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            IntMatrix([])

    @pytest.mark.parametrize("entry", [Fraction(1), True, 1.0])
    def test_int_matrix_rejects_values_equal_to_integers(self, entry):
        with pytest.raises(InvalidInputError, match="must be integers"):
            IntMatrix([[entry]])

    def test_rational_matrix_shape_checks(self):
        with pytest.raises(InvalidInputError, match="at least one row"):
            RationalMatrix([])
        with pytest.raises(InvalidInputError, match="square"):
            RationalMatrix([[1, 2]])

    def test_equality_is_type_strict(self):
        assert IntMatrix([[1]]) != RationalMatrix([[1]])
        assert RationalMatrix([[1]]) != IntMatrix([[1]])
        assert RationalMatrix([[1]]) == RationalMatrix([[Fraction(2, 2)]])
        assert hash(IntMatrix([[1, 2], [3, 4]])) == hash(IntMatrix([[1, 2], [3, 4]]))

    def test_reprs_and_columns(self):
        assert repr(IntMatrix([[1, -2], [3, 4]])) == "IntMatrix([[1, -2], [3, 4]])"
        matrix = RationalMatrix([[Fraction(1, 2), 0], [0, 1]])
        assert repr(matrix) == (
            "RationalMatrix([[Fraction(1, 2), Fraction(0, 1)], "
            "[Fraction(0, 1), Fraction(1, 1)]])"
        )
        assert (matrix.n, matrix.entries[0]) == (2, (Fraction(1, 2), 0))


class TestContinuants:
    def test_trailing_minors_of_random_tridiagonals(self):
        rng = random.Random(3571)
        for _ in range(200):
            n = rng.randint(1, 7)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = rng.randint(-4, 4)
            for i in range(n - 1):
                rows[i][i + 1] = rows[i + 1][i] = rng.choice((1, -1))
            thetas = continuants([rows[i][i] for i in range(n)])
            assert len(thetas) == n + 1
            assert thetas[n] == 1
            for k in range(n):
                assert thetas[k] == cofactor_det([row[k:] for row in rows[k:]])

    def test_zero_continuant_mid_chain(self):
        # theta_2 = 1 * 1 - 1 = 0: a solve dividing by it would need a pivot
        assert continuants((5, 1, 1)) == (-1, 0, 1, 1)
        assert det(IntMatrix([[5, 1, 0], [1, 1, 1], [0, 1, 1]])) == -1
        assert continuants((0,)) == (0, 1)


class TestBoundedMessages:
    def test_a_long_entry_is_cut(self):
        with pytest.raises(InvalidInputError) as info:
            IntMatrix([["x" * 100000]])
        assert len(str(info.value)) < 200
        assert str(info.value).endswith("... (100002 characters)")

    @pytest.mark.parametrize("entry, shown", [("x", "'x'"), (1.5, "1.5"), (True, "True")])
    def test_a_short_entry_reads_as_before(self, entry, shown):
        with pytest.raises(InvalidInputError) as info:
            IntMatrix([[entry]])
        assert str(info.value) == f"matrix entries must be integers, got {shown}"
