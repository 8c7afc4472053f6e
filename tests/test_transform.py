"""Post-surgery invariants and the Bennequin verdict."""

import random
from fractions import Fraction

import pytest

from contact_kirby.errors import (
    InvalidInputError,
    InvalidLegendrianError,
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
    stabilization_budget,
)
from contact_kirby.transform import (
    bennequin,
    framing_unknot_tb_shift,
    invariants_after_surgery,
    invariants_by_inverse,
)

from oracles import gauss_solve, slid_diagonal

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

    def test_non_integral_value_too_long_to_write(self):
        # M = (-10^(n-1)): tb_new = -1 + lk^2 / 10^(n-1), whose reduced
        # numerator has 2n digits, is written by its parts' digit counts
        n = 4300
        big = 10 ** (n - 1)
        lk = 9 * big + 1
        pres = convert(LegendrianUnknot(-(big + 1), 0), 1, [])
        for solve in (invariants_after_surgery, invariants_by_inverse):
            with pytest.raises(NonIntegralInvariantError) as info:
                solve(pres, ExternalKnot(FRAMING_UNKNOT, lk))
            assert info.value.value == Fraction(lk * lk, big) - 1
            assert str(info.value) == (
                "post-surgery Thurston-Bennequin number is not an integer: "
                "a 8600-digit integer/a 4300-digit integer"
            )

    def test_non_integral_error_keeps_the_exact_value(self):
        # det M = -13: tb_new = -1 + lk^2 / 13 for a 2000-digit lk, whose
        # message writes only digit counts
        lk = 10 ** 1999 + 1
        pres = convert(LegendrianUnknot(-1, 0), -12, [1] * 11)
        ext = ExternalKnot(FRAMING_UNKNOT, lk)
        for solve in (invariants_after_surgery, invariants_by_inverse):
            with pytest.raises(NonIntegralInvariantError) as info:
                solve(pres, ext)
            assert type(info.value.value) is Fraction
            assert info.value.value == Fraction(lk * lk - 13, 13)
            assert info.value.value == dense_solve(pres, ext)[0]

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

    # exact types: True and 1.0 equal 1, and -1.0 equals -1
    @pytest.mark.parametrize(
        "sign, tb0, message",
        [
            (True, -1, "topological surgery sign must be +1 or -1, got True"),
            (1.0, -1, "topological surgery sign must be +1 or -1, got 1.0"),
            (1, -1.0, "tb must be an integer (got type float)"),
            (1, True, "tb must be an integer (got type bool)"),
        ],
    )
    def test_shift_takes_only_ints(self, sign, tb0, message):
        with pytest.raises(InvalidInputError) as info:
            framing_unknot_tb_shift(sign, tb0)
        assert str(info.value) == message

    # a framing unknot is a Legendrian unknot, so its tb is at most -1
    @pytest.mark.parametrize(
        "sign, tb0, shown", [(1, 7, "7"), (-1, 0, "0"), (1, 10 ** 30, "a 31-digit integer")]
    )
    def test_shift_refuses_a_tb_no_unknot_has(self, sign, tb0, shown):
        with pytest.raises(InvalidLegendrianError) as info:
            framing_unknot_tb_shift(sign, tb0)
        assert str(info.value) == f"tb must be at most -1 for a Legendrian unknot (got tb={shown})"


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

    @pytest.mark.parametrize(
        "tb, rot, types",
        [(-2.5, 0, "float and int"), (True, 0, "bool and int"), (-2, Fraction(1), "int and Fraction")],
    )
    def test_takes_only_ints(self, tb, rot, types):
        with pytest.raises(InvalidInputError) as info:
            bennequin(tb, rot)
        assert str(info.value) == f"tb and rot must be integers (got types {types})"


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
            matrix = linking_matrix(pres)
            assert continuants(slid_diagonal(matrix.entries))[0] == det(matrix)

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


@pytest.mark.parametrize("coefficient, lk", [(Fraction(-129, 128), 257), (Fraction(1, 128), 127)])
def test_the_dense_solve_at_the_component_cap_equals_the_continuant_solve(coefficient, lk):
    # 128 components: a chain, and (+1) components whose zero diagonal
    # makes the elimination swap rows; the continuant solve shares no code
    # with the elimination
    knot = LegendrianUnknot(-1, 0)
    ext = ExternalKnot(knot, lk)
    for pres in enumerate_presentations(knot, coefficient):
        assert len(pres.components) == 128
        assert invariants_by_inverse(pres, ext) == invariants_after_surgery(pres, ext)


def test_a_long_topological_sign_is_cut():
    with pytest.raises(InvalidInputError) as info:
        framing_unknot_tb_shift("x" * 100000, -1)
    assert len(str(info.value)) < 200
    with pytest.raises(InvalidInputError) as info:
        framing_unknot_tb_shift(2, -1)
    assert str(info.value) == "topological surgery sign must be +1 or -1, got 2"


@pytest.mark.parametrize("solve", [invariants_after_surgery, invariants_by_inverse])
def test_each_solve_takes_exactly_a_presentation_and_an_external_knot(solve):
    ext = ExternalKnot(FRAMING_UNKNOT, 1)
    # det 0, so a solve that read the presentation first would raise
    # SingularMatrixError before it ever looked at the external knot
    singular = convert(LegendrianUnknot(-2, -1), 2, [1])
    cases = [
        ((1, ext), "a presentation must be a Presentation (got type int)"),
        ((singular, (FRAMING_UNKNOT, 1)), "an external knot must be an ExternalKnot (got type tuple)"),
        ((ext, singular), "a presentation must be a Presentation (got type ExternalKnot)"),
    ]
    for args, message in cases:
        with pytest.raises(InvalidInputError) as info:
            solve(*args)
        assert str(info.value) == message
