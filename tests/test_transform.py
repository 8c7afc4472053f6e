"""Post-surgery invariants and the Bennequin verdict."""

import random
import sys
from fractions import Fraction

import pytest

from contact_kirby.errors import (
    InvalidInputError,
    NonIntegralInvariantError,
    SingularMatrixError,
)
from contact_kirby.exact import apply, continuants, det, inner, invert
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot
from contact_kirby.presentation import (
    convert,
    enumerate_presentations,
    linking_matrix,
    linking_vector,
    mirror,
    rot_vector,
    slid_diagonal,
    stabilization_budget,
)
from contact_kirby.transform import (
    bennequin,
    framing_unknot_tb_shift,
    invariants_after_surgery,
    invariants_by_inverse,
)

from oracles import gauss_solve

FRAMING_UNKNOT = LegendrianUnknot(-1, 0)


def plus_branch(m):
    return convert(LegendrianUnknot(-m, -(m - 1)), m + 1, [1])


def minus_branch(m):
    return convert(LegendrianUnknot(-m, -(m - 1)), m + 1, [-1])


class TestRotAfterSurgery:
    def test_plus_branch_formula(self):
        ext = ExternalKnot(FRAMING_UNKNOT, 1)
        for m in range(1, 13):
            assert invariants_after_surgery(plus_branch(m), ext).rot_new == 2 * m - 1

    def test_minus_branch_value(self):
        ext = ExternalKnot(FRAMING_UNKNOT, 1)
        for m in range(1, 11):
            pres = minus_branch(m)
            # independent route: solve M x = L with plain Gaussian elimination
            matrix = [list(r) for r in linking_matrix(pres).entries]
            solved = gauss_solve(matrix, linking_vector(pres, ext))
            pairing = sum(c * x for c, x in zip(rot_vector(pres), solved))
            assert pairing == 1
            assert invariants_after_surgery(pres, ext).rot_new == -1

    def test_zero_linking_leaves_rot(self):
        ext = ExternalKnot(LegendrianUnknot(-2, 1), 0)
        assert invariants_after_surgery(plus_branch(3), ext).rot_new == 1

    def test_non_integral_raises_with_value(self):
        # contact -3/2 on a tb -3 unknot has |det M| = 9; at lk 3 tb_new
        # is an integer and rot_new is not
        pres = convert(LegendrianUnknot(-3, 0), Fraction(-3, 2), [1])
        ext = ExternalKnot(FRAMING_UNKNOT, 3)
        with pytest.raises(NonIntegralInvariantError, match="rotation number") as info:
            invariants_after_surgery(pres, ext)
        assert info.value.value == Fraction(2, 3)
        assert dense_solve(pres, ext)[1] == Fraction(2, 3)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this Python writes integers of any length",
    )
    def test_non_integral_value_too_long_to_write(self):
        # M = (-10^(n-1)): tb_new = -1 + lk^2 / 10^(n-1) has a numerator
        # past Python's n-digit limit, so the message names the limit
        limit = sys.get_int_max_str_digits()
        big = 10 ** (limit - 1)
        lk = 9 * big + 1
        pres = convert(LegendrianUnknot(-(big + 1), 0), 1, [])
        for solve in (invariants_after_surgery, invariants_by_inverse):
            with pytest.raises(NonIntegralInvariantError) as info:
                solve(pres, ExternalKnot(FRAMING_UNKNOT, lk))
            assert info.value.value == Fraction(lk * lk, big) - 1
            assert f"more than {limit} digits" in str(info.value)

    def test_singular_matrix_raises(self):
        # contact 2 on a tb -2 unknot is topologically 0-surgery, det 0
        pres = convert(LegendrianUnknot(-2, -1), 2, [1])
        with pytest.raises(SingularMatrixError):
            invariants_after_surgery(pres, ExternalKnot(FRAMING_UNKNOT, 1))


class TestTbAfterSurgery:
    def test_plus_family(self):
        ext = ExternalKnot(FRAMING_UNKNOT, 1)
        for m in range(1, 13):
            assert invariants_after_surgery(plus_branch(m), ext).tb_new == -2

    def test_minus_family(self):
        ext = ExternalKnot(FRAMING_UNKNOT, -1)
        for m in range(2, 13):
            for pres in enumerate_presentations(
                LegendrianUnknot(-m, -(m - 1)), m - 1
            ):
                assert invariants_after_surgery(pres, ext).tb_new == 0

    def test_zero_linking_leaves_tb(self):
        ext = ExternalKnot(LegendrianUnknot(-2, 1), 0)
        assert invariants_after_surgery(plus_branch(3), ext).tb_new == -2

    def test_sign_vector_independence(self):
        rng = random.Random(1729)
        for _ in range(40):
            m = rng.randint(1, 6)
            k = LegendrianUnknot(-m, -(m - 1))
            r = Fraction(rng.randint(1, 10), rng.randint(1, 4))
            if r == 0:
                continue
            ext = ExternalKnot(FRAMING_UNKNOT, rng.choice((-1, 1)))
            values = set()
            for pres in enumerate_presentations(k, r):
                try:
                    values.add(invariants_after_surgery(pres, ext).tb_new)
                except NonIntegralInvariantError as err:
                    values.add(err.value)
                except SingularMatrixError:
                    values.add("singular")  # sign-independent too: M ignores signs
            assert len(values) == 1


class TestAgainstFramingShift:
    def test_plus_family_agrees(self):
        ext = ExternalKnot(FRAMING_UNKNOT, 1)
        for m in range(1, 13):
            for pres in enumerate_presentations(
                LegendrianUnknot(-m, -(m - 1)), m + 1
            ):
                assert invariants_after_surgery(pres, ext).tb_new == framing_unknot_tb_shift(1, -1)

    def test_minus_family_agrees(self):
        ext = ExternalKnot(FRAMING_UNKNOT, -1)
        for m in range(2, 13):
            for pres in enumerate_presentations(
                LegendrianUnknot(-m, -(m - 1)), m - 1
            ):
                assert invariants_after_surgery(pres, ext).tb_new == framing_unknot_tb_shift(-1, -1)

    def test_shift_examples(self):
        assert framing_unknot_tb_shift(1, -1) == -2
        assert framing_unknot_tb_shift(-1, -1) == 0
        assert framing_unknot_tb_shift(1, -5) == -6

    def test_shift_rejects_bad_sign(self):
        with pytest.raises(InvalidInputError):
            framing_unknot_tb_shift(0, -1)


class TestBennequin:
    def test_plus_branch_violation(self):
        m = 2
        verdict = bennequin(-2, 2 * m - 1)
        assert not verdict.satisfied
        assert verdict.slack == -2

    def test_minus_branch_tightness_level(self):
        verdict = bennequin(-2, -1)
        assert verdict.satisfied
        assert verdict.slack == 0

    def test_m1_exceptional(self):
        verdict = bennequin(-2, 1)
        assert verdict.satisfied
        assert verdict.slack == 0

    def test_slack_definition(self):
        for tb in range(-5, 1):
            for rot in range(-4, 5):
                verdict = bennequin(tb, rot)
                assert verdict.slack == -1 - tb - abs(rot)
                assert verdict.satisfied == (tb + abs(rot) <= -1)


class TestBundledInvariants:
    def test_matches_individual_ops(self):
        ext = ExternalKnot(FRAMING_UNKNOT, 1)
        for m in (1, 2, 5):
            pres = minus_branch(m)
            bundle = invariants_after_surgery(pres, ext)
            # the dense inverse, applied and paired by the exact ops one at a time
            assert (bundle.tb_new, bundle.rot_new) == dense_solve(pres, ext)

    def test_mirror_symmetry(self):
        rng = random.Random(99)
        for _ in range(40):
            m = rng.randint(1, 6)
            k = LegendrianUnknot(-m, -(m - 1))
            r = Fraction(rng.randint(1, 8))
            signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
            pres = convert(k, r, signs)
            ext = ExternalKnot(FRAMING_UNKNOT, rng.choice((-1, 1)))
            try:
                base = invariants_after_surgery(pres, ext)
            except (NonIntegralInvariantError, SingularMatrixError):
                continue
            flipped = invariants_after_surgery(mirror(pres), ext)
            assert flipped.tb_new == base.tb_new
            assert flipped.rot_new == -base.rot_new
            assert (
                bennequin(flipped.tb_new, flipped.rot_new).satisfied
                == bennequin(base.tb_new, base.rot_new).satisfied
            )


def random_unknot(rng):
    tb = -rng.randint(1, 6)
    return LegendrianUnknot(tb, tb + 1 + 2 * rng.randint(0, -tb - 1))


def dense_solve(pres, ext):
    """(tb_new, rot_new) as exact Fractions from the dense inverse."""
    link = linking_vector(pres, ext)
    solved = apply(invert(linking_matrix(pres)), link)
    return (
        ext.knot.tb - inner(link, solved),
        ext.knot.rot - inner(rot_vector(pres), solved),
    )


def oracle_solve(pres, ext):
    """(tb_new, rot_new) from plain Fraction Gaussian elimination."""
    link = linking_vector(pres, ext)
    rows = [list(r) for r in linking_matrix(pres).entries]
    solved = gauss_solve(rows, link)
    return (
        ext.knot.tb - sum(l * x for l, x in zip(link, solved)),
        ext.knot.rot - sum(c * x for c, x in zip(rot_vector(pres), solved)),
    )


def expected_outcome(value):
    return int(value) if value.denominator == 1 else (NonIntegralInvariantError, value)


def outcome(fn, pres, ext):
    try:
        result = fn(pres, ext)
    except NonIntegralInvariantError as err:
        return (type(err), err.value)
    return (result.tb_new, result.rot_new)


class TestContinuantSolveAgainstDense:
    def test_random_presentations(self):
        rng = random.Random(8128)
        seen = {"integral": 0, "non-integral": 0, "singular": 0, "plus": 0}
        for _ in range(400):
            r = Fraction(rng.choice([n for n in range(-20, 21) if n]), rng.randint(1, 8))
            signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
            pres = convert(random_unknot(rng), r, signs)
            ext = ExternalKnot(random_unknot(rng), rng.randint(-3, 3))
            seen["plus"] += any(c.contact_sign == 1 for c in pres.components)
            assert continuants(slid_diagonal(pres))[0] == det(linking_matrix(pres))

            try:
                tb_value, rot_value = dense_solve(pres, ext)
            except SingularMatrixError:
                seen["singular"] += 1
                with pytest.raises(ZeroDivisionError):
                    oracle_solve(pres, ext)
                for fn in (invariants_after_surgery, invariants_by_inverse):
                    with pytest.raises(SingularMatrixError):
                        fn(pres, ext)
                continue
            assert oracle_solve(pres, ext) == (tb_value, rot_value)

            tb_expected = expected_outcome(tb_value)
            rot_expected = expected_outcome(rot_value)
            both = outcome(invariants_after_surgery, pres, ext)
            if isinstance(tb_expected, tuple):
                assert both == tb_expected  # tb is checked first
            elif isinstance(rot_expected, tuple):
                assert both == rot_expected
            else:
                assert both == (tb_expected, rot_expected)
            assert outcome(invariants_by_inverse, pres, ext) == both
            integral = tb_value.denominator == rot_value.denominator == 1
            seen["integral" if integral else "non-integral"] += 1
        assert min(seen.values()) > 0, seen


def test_a_long_topological_sign_is_cut():
    with pytest.raises(InvalidInputError) as info:
        framing_unknot_tb_shift("x" * 100000, -1)
    assert len(str(info.value)) < 200
    with pytest.raises(InvalidInputError) as info:
        framing_unknot_tb_shift(2, -1)
    assert str(info.value) == "topological surgery sign must be +1 or -1, got 2"
