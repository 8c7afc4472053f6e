"""The exact identities as properties over generated surgeries.

The seeded tests beside these stay; here hypothesis draws the same
surgeries (tb -1..-6, |p| <= 30, q <= 8, budget <= 9) and the signs of
one branch of each.  The solve terms are also drawn far wider: tbs of
up to 300 digits, |p| and q up to 10^6, and long runs of -2 entries.
"""

import itertools
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contact_kirby.errors import InvalidInputError, NonIntegralInvariantError, SingularMatrixError
from contact_kirby.exact import det
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot
from contact_kirby.presentation import (
    Surgery,
    convert,
    enumerate_presentations,
    evaluate_cf,
    expand_negative,
    linking_matrix,
    mirror,
    rot_vector,
    stabilization_budget,
)
from contact_kirby.transform import invariants_after_surgery, invariants_by_inverse

from oracles import cf_convergent_value, gauss_solve, solve_terms


@st.composite
def knots(draw):
    tb = draw(st.integers(-6, -1))
    return LegendrianUnknot(tb, tb + 1 + 2 * draw(st.integers(0, -tb - 1)))


coefficients = st.builds(
    Fraction,
    st.integers(1, 30).flatmap(lambda p: st.sampled_from((p, -p))),
    st.integers(1, 8),
).filter(lambda r: stabilization_budget(r) <= 9)


@st.composite
def branches(draw):
    """One branch of a surgery: its presentation, with knot and coefficient."""
    knot, r = draw(knots()), draw(coefficients)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=stabilization_budget(r),
                          max_size=stabilization_budget(r)))
    return knot, r, convert(knot, r, signs)


@settings(deadline=None)
@given(knots(), coefficients)
def test_enumeration_is_convert_over_every_sign_vector(knot, r):
    branches = enumerate_presentations(knot, r)
    signs = itertools.product((1, -1), repeat=stabilization_budget(r))
    expected = [convert(knot, r, s) for s in signs]
    assert branches == expected
    assert [p.components for p in branches] == [p.components for p in expected]
    # one components tuple per class: per chain entry, its positive count
    by_class = {}
    for pres in branches:
        key = tuple(c.stabs_pos for c in pres.components if c.contact_sign == -1)
        by_class.setdefault(key, set()).add(id(pres.components))
    assert all(len(ids) == 1 for ids in by_class.values())


@given(st.integers(-200, -1), st.integers(1, 200))
def test_continued_fraction_round_trip(p, q):
    r = Fraction(p, q)
    coeffs = list(expand_negative(r).coeffs)
    assert all(c <= -2 for c in coeffs)
    shifted = [coeffs[0] + 1] + coeffs[1:]
    assert evaluate_cf(shifted) == r == cf_convergent_value(shifted)


@given(branches())
def test_determinant_is_the_order_of_the_homology(branch):
    knot, r, pres = branch
    assert abs(det(linking_matrix(pres))) == abs(r.numerator + r.denominator * knot.tb)
    # and its sign: eps = sign(p) (-1)^L for the L (-1) components
    chain = sum(c.contact_sign == -1 for c in pres.components)
    eps = (1 if r > 0 else -1) * (-1) ** chain
    assert det(linking_matrix(pres)) == eps * (r.numerator + r.denominator * knot.tb)


@st.composite
def solve_knots(draw):
    """A knot of tb -9..-1, or of a 50- or 300-digit tb."""
    tb = draw(
        st.integers(-9, -1)
        | st.integers(10 ** 49, 10 ** 50 - 1).map(lambda t: -t)
        | st.integers(10 ** 299, 10 ** 300 - 1).map(lambda t: -t)
    )
    return LegendrianUnknot(tb, tb + 1 + 2 * draw(st.integers(0, -tb - 1)))


# |p| and q up to 10^6, or -(k q + 1)/q, whose chain ends in a run of q - 1 entries -2
solve_coefficients = st.builds(
    Fraction,
    st.integers(1, 10 ** 6).flatmap(lambda p: st.sampled_from((p, -p))),
    st.integers(1, 10 ** 6),
) | st.builds(lambda k, q: Fraction(-(k * q + 1), q), st.integers(0, 10 ** 6), st.integers(1, 512))


@settings(deadline=None)
@given(solve_knots(), solve_coefficients)
@example(LegendrianUnknot(-1, 0), Fraction(-(3 * 512 + 1), 512))
@example(LegendrianUnknot(-10 ** 300, 1 - 10 ** 300), Fraction(10 ** 6, 999_999))
def test_solve_terms_are_the_per_entry_solve(knot, r):
    """The terms read off the conversion plan equal those read off the linking matrix.

    The oracle reads the n x n matrix, so a surgery stays at 512 components.
    """
    try:
        surgery = Surgery(knot, r, 512)
    except InvalidInputError:
        surgery = None
    assume(surgery is not None)
    rows = linking_matrix(convert(knot, r, (1,) * surgery.budget, surgery)).entries
    assert surgery.solve_terms == solve_terms(rows, surgery.contact_signs, knot.tb, knot.rot)


@given(branches())
def test_mirror_negates_every_rotation_number(branch):
    _, _, pres = branch
    flipped = mirror(pres)
    assert rot_vector(flipped) == tuple(-rot for rot in rot_vector(pres))
    assert [c.knot.tb for c in flipped.components] == [c.knot.tb for c in pres.components]
    assert linking_matrix(flipped) == linking_matrix(pres)


def outcome(solve, pres, ext):
    try:
        invariants = solve(pres, ext)
    except (SingularMatrixError, NonIntegralInvariantError) as exc:
        return type(exc)
    return invariants.tb_new, invariants.rot_new


def oracle_outcome(pres, ext):
    rows = [list(row) for row in linking_matrix(pres).entries]
    link = [ext.lk_with_original] * len(rows)
    try:
        x = gauss_solve(rows, link)
    except ZeroDivisionError:
        return SingularMatrixError
    tb_new = ext.knot.tb - sum(a * b for a, b in zip(link, x))
    rot_new = ext.knot.rot - sum(a * b for a, b in zip(rot_vector(pres), x))
    if tb_new.denominator != 1 or rot_new.denominator != 1:
        return NonIntegralInvariantError
    return int(tb_new), int(rot_new)


@settings(deadline=None)
@given(branches(), knots(), st.integers(-40, 40))
def test_continuant_solve_equals_dense_solve_and_oracle(branch, ext_knot, lk):
    _, _, pres = branch
    ext = ExternalKnot(ext_knot, lk)
    expected = oracle_outcome(pres, ext)
    assert outcome(invariants_after_surgery, pres, ext) == expected
    assert outcome(invariants_by_inverse, pres, ext) == expected


STANDARD = LegendrianUnknot(-1, 0)


@settings(deadline=None)
@given(branches(), knots(), st.integers(-40, 40))
# p + q tb = 0; then tb_new integral but rot_new not (on -8 surgery, |det| 9)
@example((STANDARD, Fraction(1), convert(STANDARD, Fraction(1))), STANDARD, 1)
@example((STANDARD, Fraction(-8), convert(STANDARD, Fraction(-8), (1,) * 7)), STANDARD, -3)
def test_tb_new_is_the_closed_form(branch, ext_knot, lk):
    """tb_new = t0 - lk^2 q / (p + q tb) on every branch of p/q-surgery on a knot of tb.

    |p + q tb| is the order of the homology, and the branch (its signs and
    hence its rotation numbers) does not enter tb_new at all.
    """
    knot, r, pres = branch
    ext = ExternalKnot(ext_knot, lk)
    order = r.numerator + r.denominator * knot.tb
    for solve in (invariants_after_surgery, invariants_by_inverse):
        if order == 0:
            with pytest.raises(SingularMatrixError):
                solve(pres, ext)
            continue
        closed_form = ext_knot.tb - Fraction(lk * lk * r.denominator, order)
        if closed_form.denominator != 1:
            with pytest.raises(NonIntegralInvariantError, match="Thurston-Bennequin") as info:
                solve(pres, ext)
            assert info.value.value == closed_form
            continue
        try:
            assert solve(pres, ext).tb_new == closed_form
        except NonIntegralInvariantError as exc:
            assert "rotation number" in str(exc)


def detailed(solve, pres, ext):
    """``solve``'s answer, or its error's type, message and exact value."""
    try:
        invariants = solve(pres, ext)
    except (SingularMatrixError, NonIntegralInvariantError) as exc:
        return type(exc), str(exc), getattr(exc, "value", None)
    return invariants.tb_new, invariants.rot_new


@st.composite
def surgeries_and_linking_numbers(draw):
    """A surgery with budget <= 6 and an lk that is, or is not, a multiple of |p + q tb|."""
    knot = draw(knots())
    r = draw(coefficients.filter(lambda r: stabilization_budget(r) <= 6))
    order = abs(r.numerator + r.denominator * knot.tb)
    if order == 0:
        return knot, r, draw(st.integers(-5, 5))
    lk = order * draw(st.integers(-3, 3))
    if order > 1 and draw(st.booleans()):
        lk += draw(st.integers(1, order - 1))
    return knot, r, lk


@settings(deadline=None)
@given(surgeries_and_linking_numbers(), knots())
# singular (p + q tb = 0), non-integral tb, and non-integral rot only
@example((STANDARD, Fraction(1), 1), STANDARD)
@example((STANDARD, Fraction(-8), 1), STANDARD)
@example((STANDARD, Fraction(-8), -3), STANDARD)
def test_every_branch_of_one_surgery_equals_the_dense_solve_and_oracle(surgery, ext_knot):
    """The continuant solve, whose terms the branches share, on every branch.

    The oracle solves M x = L once, since M and L are the same on every
    branch; each branch then pairs x with its own rotation numbers.
    """
    knot, r, lk = surgery
    ext = ExternalKnot(ext_knot, lk)
    branches = enumerate_presentations(knot, r)
    rows = [list(row) for row in linking_matrix(branches[0]).entries]
    link = [lk] * len(rows)
    try:
        x = gauss_solve(rows, link)
    except ZeroDivisionError:
        x = None
    for pres in branches:
        fast = detailed(invariants_after_surgery, pres, ext)
        assert fast == detailed(invariants_by_inverse, pres, ext)
        if x is None:
            assert fast[0] is SingularMatrixError
            continue
        tb_new = ext_knot.tb - sum(a * b for a, b in zip(link, x))
        rot_new = ext_knot.rot - sum(a * b for a, b in zip(rot_vector(pres), x))
        if tb_new.denominator != 1:
            assert fast[:1] + fast[2:] == (NonIntegralInvariantError, tb_new)
        elif rot_new.denominator != 1:
            assert fast[:1] + fast[2:] == (NonIntegralInvariantError, rot_new)
        else:
            assert fast == (tb_new, rot_new)


@st.composite
def wide_knots(draw):
    """A knot as :func:`knots` draws one, or one whose tb has many digits."""
    tb = draw(st.integers(-6, -1) | st.sampled_from((-(10 ** 50 - 1), -(10 ** 50), -(10 ** 300))))
    return LegendrianUnknot(tb, tb + 1 + 2 * draw(st.integers(0, -tb - 1)))


@settings(deadline=None)
@given(wide_knots(), coefficients)
def test_the_linking_matrix_bounds_every_integer_a_component_prints(knot, r):
    """The bound that lets the CLI check only the matrix entries printable.

    Each component's |tb|, |rot| and |topological coefficient|, and its
    stabilization counts, are at most the largest |entry| of the linking
    matrix or the knot's |tb|.  A later per-branch field is not covered.
    """
    branches = enumerate_presentations(knot, r)
    # every branch of one surgery has the same linking matrix
    entries = [x for row in linking_matrix(branches[0]).entries for x in row]
    bound = max(map(abs, entries + [knot.tb]))
    for pres in branches:
        for comp in pres.components:
            printed = (comp.knot.tb, comp.knot.rot, comp.topological_coefficient)
            assert max(map(abs, printed)) <= bound
            assert max(comp.stabs_pos, comp.stabs_neg) <= bound
