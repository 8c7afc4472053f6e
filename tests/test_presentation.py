"""Conversion into (+/-1)-chains, continued fractions, and linking data."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from contact_kirby.errors import (
    InvalidExpansionError,
    InvalidInputError,
    ZeroSurgeryError,
)
from contact_kirby.exact import IntMatrix, det
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot
from contact_kirby.presentation import (
    CFExpansion,
    Component,
    Presentation,
    Surgery,
    component_count,
    convert,
    enumerate_presentations,
    evaluate_cf,
    expand_negative,
    linking_matrix,
    linking_vector,
    mirror,
    rot_vector,
    slid_diagonal,
    stabilization_budget,
)

from contact_kirby.transform import invariants_after_surgery

from oracles import cf_convergent_value, chain_family_matrix


def random_valid_unknot(rng, max_m=6):
    tb = -rng.randint(1, max_m)
    rot = tb + 1 + 2 * rng.randint(0, -tb - 1)
    return LegendrianUnknot(tb, rot)


def random_reduced_negative(rng, bound):
    while True:
        num = -rng.randint(1, bound)
        den = rng.randint(1, bound)
        value = Fraction(num, den)
        if value < 0:
            return value


class TestEvaluateCf:
    def test_two_twos(self):
        assert evaluate_cf([-2, -2]) == Fraction(-3, 2)

    def test_single(self):
        assert evaluate_cf([-3]) == -3

    def test_all_twos_family(self):
        for m in range(1, 11):
            coeffs = [-2] * m
            expected = Fraction(-(m + 1), m)
            assert evaluate_cf(coeffs) == expected
            assert cf_convergent_value(coeffs) == expected

    def test_matches_convergent_oracle(self):
        rng = random.Random(8128)
        for _ in range(300):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            try:
                value = evaluate_cf(coeffs)
            except InvalidExpansionError:
                continue
            assert value == cf_convergent_value(coeffs)

    def test_zero_denominator(self):
        with pytest.raises(InvalidExpansionError):
            evaluate_cf([5, 1, 1])  # inner tail evaluates to zero

    def test_empty(self):
        with pytest.raises(InvalidExpansionError):
            evaluate_cf([])


class TestExpandNegative:
    def test_chain_coefficient_m2(self):
        assert expand_negative(Fraction(-3, 2)).coeffs == (-3, -2)

    def test_minus_one(self):
        expansion = expand_negative(-1)
        assert expansion.coeffs == (-2,)
        assert expansion.stabilization_counts == (0,)

    def test_chain_coefficient_m5(self):
        assert expand_negative(Fraction(-6, 5)).coeffs == (-3, -2, -2, -2, -2)

    def test_rejects_non_negative(self):
        for bad in (0, 1, Fraction(5, 3)):
            with pytest.raises(InvalidInputError):
                expand_negative(bad)

    def test_round_trip_random(self):
        rng = random.Random(271828)
        for _ in range(400):
            r = random_reduced_negative(rng, 200)
            coeffs = list(expand_negative(r).coeffs)
            assert all(c <= -2 for c in coeffs)
            assert evaluate_cf([coeffs[0] + 1] + coeffs[1:]) == r

    def test_expansion_type_invariants(self):
        with pytest.raises(InvalidExpansionError):
            CFExpansion((-1,))
        with pytest.raises(InvalidExpansionError):
            CFExpansion(())


class TestConvert:
    def test_chain_family_m3(self):
        k = LegendrianUnknot(-3, -2)
        pres = convert(k, 4, [1])
        data = [
            (c.knot.tb, c.knot.rot, c.contact_sign, c.parent, c.stabs_pos + c.stabs_neg)
            for c in pres.components
        ]
        assert data == [
            (-3, -2, 1, None, 0),
            (-4, -1, -1, 0, 1),
            (-4, -1, -1, 1, 0),
            (-4, -1, -1, 2, 0),
        ]

    def test_plus_one_single_component(self):
        pres = convert(LegendrianUnknot(-1, 0), 1)
        assert len(pres.components) == 1
        assert pres.components[0].contact_sign == 1
        assert pres.components[0].parent is None

    def test_minus_one_single_component(self):
        pres = convert(LegendrianUnknot(-1, 0), -1)
        assert len(pres.components) == 1
        assert pres.components[0].contact_sign == -1
        assert (pres.components[0].stabs_pos, pres.components[0].stabs_neg) == (0, 0)

    def test_plus_two_on_standard_unknot(self):
        pres = convert(LegendrianUnknot(-1, 0), 2, [1])
        data = [
            (c.knot.tb, c.knot.rot, c.contact_sign) for c in pres.components
        ]
        assert data == [(-1, 0, 1), (-2, 1, -1)]
        assert linking_matrix(pres) == IntMatrix([[0, -1], [-1, -3]])

    def test_interval_coefficient_gets_plus_pushoffs(self):
        # 1/2-surgery reduces to +1 on the knot and +1 on one push-off
        pres = convert(LegendrianUnknot(-1, 0), Fraction(1, 2))
        assert [c.contact_sign for c in pres.components] == [1, 1]
        assert [(c.stabs_pos, c.stabs_neg) for c in pres.components] == [(0, 0)] * 2
        assert pres.components[1].parent == 0

    def test_pure_negative_chain_head_carries_stabilizations(self):
        pres = convert(LegendrianUnknot(-1, 0), -2, [-1])
        assert len(pres.components) == 1
        head = pres.components[0]
        assert head.parent is None
        assert (head.knot.tb, head.knot.rot) == (-2, -1)
        assert head.contact_sign == -1

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ZeroSurgeryError):
            convert(LegendrianUnknot(-1, 0), 0)

    def test_wrong_sign_count_rejected(self):
        for build in (convert, Presentation):
            with pytest.raises(InvalidInputError):
                build(LegendrianUnknot(-3, -2), 4, [])
            with pytest.raises(InvalidInputError):
                build(LegendrianUnknot(-1, 0), 1, [1])

    def test_bad_sign_values_rejected(self):
        for build in (convert, Presentation):
            with pytest.raises(InvalidInputError):
                build(LegendrianUnknot(-3, -2), 4, [2])

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_sign_values_must_be_exact_ints(self, sign):
        for build in (convert, Presentation):
            with pytest.raises(InvalidInputError, match="signs must be"):
                build(LegendrianUnknot(-1, 0), 2, [sign])


class TestEnumerate:
    def test_chain_family_two_branches(self):
        m = 4
        k = LegendrianUnknot(-m, -(m - 1))
        branches = enumerate_presentations(k, m + 1)
        assert len(branches) == 2
        assert branches[0].sign_choice == (1,)
        assert branches[1].sign_choice == (-1,)
        rots = {p.components[1].knot.rot for p in branches}
        assert rots == {-m, -m + 2}

    def test_single_branch_for_minus_one(self):
        assert len(enumerate_presentations(LegendrianUnknot(-1, 0), -1)) == 1

    def test_two_to_the_s_branches(self):
        k = LegendrianUnknot(-3, 2)
        r = Fraction(-5, 2)
        s = stabilization_budget(r)
        branches = enumerate_presentations(k, r)
        assert len(branches) == 2 ** s
        assert len({p.sign_choice for p in branches}) == len(branches)

    def test_enumeration_expands_the_coefficient_once(self, monkeypatch):
        from contact_kirby import presentation

        calls = []
        expand = presentation._floor_expansion
        monkeypatch.setattr(
            presentation, "_floor_expansion", lambda p, q: calls.append((p, q)) or expand(p, q)
        )
        presentation._conversion_plan.cache_clear()
        try:
            branches = enumerate_presentations(LegendrianUnknot(-1, 0), -11)
        finally:
            presentation._conversion_plan.cache_clear()
        assert calls == [(-11, 1)]
        assert len(branches) == 2 ** 10


class TestLinkingData:
    def test_chain_matrix_m2(self):
        k = LegendrianUnknot(-2, -1)
        pres = convert(k, 3, [1])
        assert linking_matrix(pres) == IntMatrix(
            [[-1, -2, -2], [-2, -4, -3], [-2, -3, -4]]
        )

    def test_chain_matrix_m1(self):
        pres = convert(LegendrianUnknot(-1, 0), 2, [1])
        assert linking_matrix(pres) == IntMatrix([[0, -1], [-1, -3]])

    def test_single_component_diagonal(self):
        pres = convert(LegendrianUnknot(-2, -1), 1)
        assert linking_matrix(pres) == IntMatrix([[-1]])

    def test_closed_form_family(self):
        for m in range(1, 11):
            k = LegendrianUnknot(-m, -(m - 1))
            pres = convert(k, m + 1, [1])
            assert linking_matrix(pres) == IntMatrix(chain_family_matrix(m))

    def test_symmetry_and_diagonal(self):
        rng = random.Random(1618)
        for _ in range(100):
            k = random_valid_unknot(rng)
            r = random_reduced_negative(rng, 12) if rng.random() < 0.5 else Fraction(
                rng.randint(1, 12), rng.randint(1, 6)
            )
            if r == 0:
                continue
            signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
            pres = convert(k, r, signs)
            matrix = linking_matrix(pres).entries
            for i, comp in enumerate(pres.components):
                assert matrix[i][i] == comp.knot.tb + comp.contact_sign
                for j in range(len(matrix)):
                    assert matrix[i][j] == matrix[j][i]

    def test_determinant_matches_surgery_homology(self):
        # |det M| equals |p + q tb| for contact p/q surgery on a tb unknot
        rng = random.Random(6174)
        for _ in range(150):
            k = random_valid_unknot(rng)
            num = rng.randint(-20, 20)
            den = rng.randint(1, 10)
            if num == 0:
                continue
            r = Fraction(num, den)
            signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
            pres = convert(k, r, signs)
            expected = abs(r.numerator + r.denominator * k.tb)
            assert abs(det(linking_matrix(pres))) == expected

    def test_handle_slides_make_the_matrix_tridiagonal(self):
        rng = random.Random(2718)
        for _ in range(150):
            k = random_valid_unknot(rng)
            num = rng.randint(-20, 20)
            den = rng.randint(1, 10)
            if num == 0:
                continue
            r = Fraction(num, den)
            signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
            pres = convert(k, r, signs)
            m = linking_matrix(pres).entries
            n = len(m)
            # row i of P is e_i - e_{i-1}: slide component i over i - 1
            p = [[int(i == j) - int(i == j + 1) for j in range(n)] for i in range(n)]
            slid = [
                [
                    sum(p[i][a] * m[a][b] * p[j][b] for a in range(n) for b in range(n))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            expected = [[0] * n for _ in range(n)]
            for i, a in enumerate(slid_diagonal(pres)):
                expected[i][i] = a
            for i, comp in enumerate(pres.components[:-1]):
                expected[i][i + 1] = expected[i + 1][i] = -comp.contact_sign
            assert slid == expected

    def test_linking_vector(self):
        k = LegendrianUnknot(-3, -2)
        plus = convert(k, 4, [1])
        ext = ExternalKnot(LegendrianUnknot(-1, 0), 1)
        assert linking_vector(plus, ext) == (1, 1, 1, 1)

        minus_family = convert(k, 2, [1])  # chain of length m-2 plus original
        ext_minus = ExternalKnot(LegendrianUnknot(-1, 0), -1)
        assert linking_vector(minus_family, ext_minus) == (-1, -1)

        ext_zero = ExternalKnot(LegendrianUnknot(-1, 0), 0)
        assert linking_vector(plus, ext_zero) == (0, 0, 0, 0)

    def test_rot_vector(self):
        k = LegendrianUnknot(-3, -2)
        assert rot_vector(convert(k, 4, [1])) == (-2, -1, -1, -1)
        assert rot_vector(convert(k, 4, [-1])) == (-2, -3, -3, -3)
        assert rot_vector(convert(LegendrianUnknot(-2, 1), 1)) == (1,)


class TestMirror:
    def test_mirror_negates_rots_and_signs(self):
        k = LegendrianUnknot(-3, -2)
        pres = convert(k, 4, [1])
        flipped = mirror(pres)
        assert flipped.sign_choice == (-1,)
        assert rot_vector(flipped) == tuple(-r for r in rot_vector(pres))
        assert linking_matrix(flipped) == linking_matrix(pres)

    def test_mirror_equals_converting_the_mirror(self):
        k = LegendrianUnknot(-4, 3)
        pres = convert(k, 5, [-1])
        direct = convert(LegendrianUnknot(-4, -3), 5, [1])
        assert mirror(pres) == direct


class TestStructureChecks:
    """A presentation is fixed by its knot, coefficient and signs."""

    def test_replacing_the_signs_rebuilds_the_components(self):
        pres = convert(LegendrianUnknot(-1, 0), Fraction(3, 2), [1, -1])
        both_plus = Presentation(pres.source_knot, pres.source_coefficient, (1, 1))
        assert both_plus == convert(LegendrianUnknot(-1, 0), Fraction(3, 2), [1, 1])
        assert both_plus.components[1].knot == LegendrianUnknot(-3, 2)

    def test_components_follow_the_conversion_rule(self):
        rng = random.Random(6119)
        for _ in range(200):
            k = random_valid_unknot(rng)
            num = rng.randint(-20, 20) or 1
            r = Fraction(num, rng.randint(1, 10))
            signs = tuple(rng.choice((1, -1)) for _ in range(stabilization_budget(r)))
            pres = convert(k, r, signs)
            assert pres == Presentation(k, r, signs)
            assert [c.index for c in pres.components] == list(range(len(pres.components)))
            plus = [c for c in pres.components if c.contact_sign == 1]
            assert pres.components[:len(plus)] == tuple(plus)
            assert all(c.knot == k and c.stabs_pos == c.stabs_neg == 0 for c in plus)
            chain = pres.components[len(plus):]
            counts = ()
            if chain:
                # after n (+1) peels the residual is 1/(1/r - n)
                counts = expand_negative(r / (1 - len(plus) * r)).stabilization_counts
            assert len(chain) == len(counts)
            prev, start = k, 0
            for comp, count in zip(chain, counts):
                pos = signs[start:start + count].count(1)
                neg = count - pos
                start += count
                assert comp.contact_sign == -1
                assert (comp.stabs_pos, comp.stabs_neg) == (pos, neg)
                assert comp.knot.tb == prev.tb - count
                assert comp.knot.rot == prev.rot + pos - neg
                prev = comp.knot
            assert start == len(signs)
            flipped = mirror(pres)
            assert flipped.components == tuple(
                Component(
                    c.index,
                    LegendrianUnknot(c.knot.tb, -c.knot.rot),
                    c.contact_sign,
                    stabs_pos=c.stabs_neg,
                    stabs_neg=c.stabs_pos,
                )
                for c in pres.components
            )

    def test_parent_is_the_previous_component(self):
        rng = random.Random(5040)
        for _ in range(200):
            k = random_valid_unknot(rng)
            num = rng.randint(-20, 20) or 1
            r = Fraction(num, rng.randint(1, 10))
            signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
            pres = convert(k, r, signs)
            for p in (pres, mirror(pres)):
                for c in p.components:
                    assert c.parent == (c.index - 1 if c.index else None)


STANDARD = LegendrianUnknot(-1, 0)
# each but None equals or parses to a coefficient, but is not an int or a
# Fraction; the long string's message must not repeat it
NOT_EXACT = [0.1, -1.5, -0.3, "  -3/2", "-" + "9" * 10 ** 5, True, Decimal("-1.5"), None]


class TestExactInput:
    """A coefficient is exactly an int or a Fraction, an expansion entry exactly an int."""

    @pytest.mark.parametrize("coefficient", NOT_EXACT)
    @pytest.mark.parametrize(
        "entry",
        [
            stabilization_budget,
            expand_negative,
            lambda r: component_count(r, 8),
            lambda r: convert(STANDARD, r),
            # -0.3 used to run out of memory on a budget of 900719925474100
            lambda r: enumerate_presentations(STANDARD, r),
            lambda r: Presentation(STANDARD, r, ()),
        ],
    )
    def test_a_coefficient_of_another_type_is_refused(self, entry, coefficient):
        with pytest.raises(InvalidInputError) as info:
            entry(coefficient)
        message = str(info.value)
        assert f"(got type {type(coefficient).__name__})" in message
        assert len(message) < 100

    @pytest.mark.parametrize(
        "coeffs", [(-2.5,), (-2, -3.0), (-2, True), (Fraction(-3),), ("-2",), (-2, Decimal(-3))]
    )
    @pytest.mark.parametrize("entry", [CFExpansion, evaluate_cf])
    def test_an_expansion_entry_of_another_type_is_refused(self, entry, coeffs):
        with pytest.raises(InvalidExpansionError, match=r"must be integers \(got type "):
            entry(coeffs)


def stepped_plus_count(r: Fraction):
    """The (+1) count and residual by stepping r -> r/(1 - r) one peel at a time."""
    plus = 0
    while r > 0 and r != 1:
        plus += 1
        r = r / (1 - r)
    if r == 1:
        return plus + 1, None
    return plus, r


class TestComponentCount:
    def test_closed_form_plus_count_matches_stepping(self):
        from contact_kirby import presentation

        def peel(r):
            plus, residual = presentation._peel_plus(r.numerator, r.denominator)
            return plus, None if residual is None else Fraction(*residual)

        rng = random.Random(3001)
        for _ in range(400):
            r = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            assert peel(r) == stepped_plus_count(r)
        assert peel(Fraction(-7, 3)) == (0, Fraction(-7, 3))

    def test_counts_every_component_of_the_conversion(self):
        rng = random.Random(3002)
        for _ in range(300):
            r = Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 12))
            pres = convert(LegendrianUnknot(-1, 0), r, [1] * stabilization_budget(r))
            n = len(pres.components)
            assert component_count(r, n) == n
            assert component_count(r, 1000) == n
            if n > 1:
                assert component_count(r, n - 1) > n - 1

    def test_long_conversions_are_counted_in_bounded_time(self):
        # 10^18 (+1) components, or a chain of 10^18 entries, each refused
        # after one step past the bound instead of being followed to the end
        huge = 10 ** 18
        assert component_count(Fraction(1, huge), 128) == huge
        assert component_count(Fraction(-(huge + 1), huge), 128) == 129
        assert component_count(Fraction(2, 2 * huge + 1), 3) > 3

    def test_zero_is_refused(self):
        with pytest.raises(ZeroSurgeryError):
            component_count(0, 128)


def random_small_surgery(rng):
    """A random surgery with tb -1..-6, |p| <= 30, q <= 8 and budget <= 9."""
    while True:
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 8))
        if stabilization_budget(r) <= 9:
            return random_valid_unknot(rng), r


class TestBranchesShareTheLinkingMatrix:
    """Every branch of one surgery has the same linking matrix M.

    A chain component's tb is the knot's tb less the stabilizations so
    far, whatever their signs, and M reads only tbs and contact signs;
    so one det of M serves every branch, and |det M| = |p + q tb|.
    """

    def test_every_branch_has_the_same_matrix_and_det(self):
        rng = random.Random(2740)
        for _ in range(120):
            knot, r = random_small_surgery(rng)
            branches = enumerate_presentations(knot, r)
            shared = linking_matrix(branches[0])
            shared_det = det(shared)
            assert abs(shared_det) == abs(r.numerator + r.denominator * knot.tb)
            for pres in branches:
                own = linking_matrix(pres)
                assert own == shared
                assert det(own) == shared_det


def rebuilt_components(knot, r, signs):
    """The components of ``convert(knot, r, signs)``, one chain entry at a time.

    Written from the conversion rule: (+1) components on unstabilized
    push-offs, then each chain entry takes its chunk of the signs.
    """
    plus, residual = 0, r
    while residual > 0 and residual != 1:
        plus, residual = plus + 1, residual / (1 - residual)
    if residual == 1:
        return tuple(Component(i, knot, 1) for i in range(plus + 1))
    comps = [Component(i, knot, 1) for i in range(plus)]
    counts = expand_negative(residual).stabilization_counts
    tb, rot, start = knot.tb, knot.rot, 0
    for count in counts:
        chunk = signs[start:start + count]
        start += count
        pos, neg = chunk.count(1), chunk.count(-1)
        tb, rot = tb - count, rot + pos - neg
        comps.append(Component(len(comps), LegendrianUnknot(tb, rot), -1, pos, neg))
    return tuple(comps)


class TestClassesShareComponents:
    """The branches of one Legendrian class share one components tuple."""

    def test_fourteen_classes_of_minus_fourteen(self):
        branches = enumerate_presentations(LegendrianUnknot(-1, 0), -14)
        assert len(branches) == 8192
        # one chain component with 13 stabilizations: 14 positive counts
        assert len({id(p.components) for p in branches}) == 14

    def test_every_branch_equals_a_fresh_rebuild(self):
        rng = random.Random(1461)
        for _ in range(120):
            knot, r = random_small_surgery(rng)
            branches = enumerate_presentations(knot, r)
            by_class = {}
            for pres in branches:
                assert pres.components == rebuilt_components(knot, r, pres.sign_choice)
                assert pres.components == convert(knot, r, pres.sign_choice).components
                by_class.setdefault(rot_vector(pres), set()).add(id(pres.components))
            # one tuple per class, and one knot object per distinct chain knot
            assert all(len(ids) == 1 for ids in by_class.values())
            knots = {id(c.knot): c.knot for p in branches for c in p.components}
            assert len(knots) == len(set(knots.values()))

    def test_a_table_does_not_change_the_presentation(self):
        k, r = LegendrianUnknot(-2, 1), Fraction(-7, 3)
        surgery = Surgery(k, r)
        # -7/3 is one chain entry with 2 stabilizations (and two with none)
        shared = [convert(k, r, signs, surgery) for signs in ((1, -1), (-1, 1))]
        assert shared == [Presentation(k, r, (1, -1)), Presentation(k, r, (-1, 1))]
        assert shared[0].components is shared[1].components


def class_key(pres):
    """How many signs of each chain entry are positive."""
    return tuple(c.stabs_pos for c in pres.components if c.contact_sign == -1)


# no chain (1/q), budget 0 with and without a chain entry, one entry, and
# chains of several entries, some of them with no stabilizations
ENUMERATED = [
    (LegendrianUnknot(-1, 0), Fraction(1, 3)),
    (LegendrianUnknot(-2, 1), Fraction(1)),
    (LegendrianUnknot(-2, -1), Fraction(-1)),
    (LegendrianUnknot(-3, 0), Fraction(-2)),
    (LegendrianUnknot(-1, 0), Fraction(-9)),
    (LegendrianUnknot(-2, 1), Fraction(-7, 3)),
    (LegendrianUnknot(-4, 3), Fraction(-13, 5)),
    (LegendrianUnknot(-2, 1), Fraction(-82, 125)),
    (LegendrianUnknot(-1, 0), Fraction(31, 10)),
]


class TestEnumerationEqualsConversion:
    """``enumerate_presentations`` is ``convert`` over every sign vector, in order."""

    @staticmethod
    def converted(knot, r):
        budget = stabilization_budget(r)
        return [convert(knot, r, s) for s in itertools.product((1, -1), repeat=budget)]

    def assert_enumerated(self, knot, r):
        branches = enumerate_presentations(knot, r)
        expected = self.converted(knot, r)
        assert branches == expected
        assert [p.components for p in branches] == [p.components for p in expected]
        by_class = {}
        for pres in branches:
            by_class.setdefault(class_key(pres), set()).add(id(pres.components))
        assert all(len(ids) == 1 for ids in by_class.values())
        assert len({id(p.components) for p in branches}) == len(by_class)

    @pytest.mark.parametrize("knot, r", ENUMERATED)
    def test_listed_surgeries(self, knot, r):
        self.assert_enumerated(knot, r)

    def test_seeded_surgeries(self):
        rng = random.Random(5512)
        for _ in range(60):
            self.assert_enumerated(*random_small_surgery(rng))

    @pytest.mark.parametrize("knot, r", ENUMERATED)
    def test_convert_runs_once_per_class(self, monkeypatch, knot, r):
        from contact_kirby import presentation

        calls = []
        original = presentation.convert
        monkeypatch.setattr(
            presentation, "convert", lambda *args: calls.append(args[2]) or original(*args)
        )
        branches = enumerate_presentations(knot, r)
        _, residual = presentation._peel_plus(r.numerator, r.denominator)
        counts = () if residual is None else expand_negative(Fraction(*residual)).stabilization_counts
        classes = 1
        for count in counts:
            classes *= count + 1
        assert len(calls) == classes == len({class_key(p) for p in branches})
        # each call is the first branch of its class
        firsts = {}
        for pres in branches:
            firsts.setdefault(class_key(pres), pres.sign_choice)
        assert calls == list(firsts.values())


class TestLibraryInputTypes:
    """The surgery checks its knot's exact type; a wrong one is refused by name."""

    def test_convert_refuses_a_string_knot(self):
        with pytest.raises(InvalidInputError, match=r"LegendrianUnknot \(got type str\)"):
            convert("knot", Fraction(-2), (1,))

    def test_convert_refuses_no_knot(self):
        with pytest.raises(InvalidInputError, match=r"LegendrianUnknot \(got type NoneType\)"):
            convert(None, Fraction(1), ())

    def test_enumeration_refuses_a_string_knot(self):
        with pytest.raises(InvalidInputError, match=r"LegendrianUnknot \(got type str\)"):
            enumerate_presentations("k", Fraction(-2))

    def test_a_surgery_of_another_diagram_is_refused(self):
        surgery = Surgery(LegendrianUnknot(-1, 0), Fraction(-2))
        with pytest.raises(InvalidInputError, match="another knot or coefficient"):
            convert(LegendrianUnknot(-1, 0), Fraction(-3), (1, 1), surgery)
        with pytest.raises(InvalidInputError, match="another knot or coefficient"):
            convert(LegendrianUnknot(-3, 0), Fraction(-2), (1,), surgery)


class TestBoundedMessages:
    def test_a_long_expansion_is_cut(self):
        with pytest.raises(InvalidExpansionError) as info:
            CFExpansion((-1,) * 100000)
        assert len(str(info.value)) < 200
        assert str(info.value).endswith("got [-1, -1, -1, -1, -1,... (400000 characters)")

    def test_a_short_expansion_reads_as_before(self):
        with pytest.raises(InvalidExpansionError) as info:
            CFExpansion((-3, -1))
        assert str(info.value) == "expansion coefficients must be at most -2, got [-3, -1]"
        with pytest.raises(InvalidExpansionError) as info:
            evaluate_cf([-2, 1, 1])
        assert str(info.value) == "division by zero while evaluating [-2, 1, 1]"

    def test_long_signs_are_cut(self):
        with pytest.raises(InvalidInputError) as info:
            convert(LegendrianUnknot(-1, 0), Fraction(-2), ("x" * 100000,))
        assert len(str(info.value)) < 200
        with pytest.raises(InvalidInputError) as info:
            convert(LegendrianUnknot(-1, 0), Fraction(-2), (10 ** 5000,))
        assert len(str(info.value)) < 200

    def test_short_signs_read_as_before(self):
        with pytest.raises(InvalidInputError) as info:
            convert(LegendrianUnknot(-1, 0), Fraction(-3), (1, True))
        assert str(info.value) == "signs must be +1 or -1, got [1, True]"


class TestComponentsAreBuiltWhenRead:
    """Components come from the surgery, once per class, only when read."""

    def test_reading_invariants_builds_no_components(self):
        ext = ExternalKnot(LegendrianUnknot(-1, 0), 1)
        branches = enumerate_presentations(LegendrianUnknot(-4, 1), Fraction(-13, 5))
        surgery = branches[0].surgery
        assert all(pres.surgery is surgery for pres in branches)
        for pres in branches:
            try:
                invariants_after_surgery(pres, ext)
            except ArithmeticError:
                pass
        assert surgery.classes == {}

    def test_one_tuple_per_class_equal_to_an_eager_rebuild(self):
        rng = random.Random(1913)
        for _ in range(80):
            knot, r = random_small_surgery(rng)
            branches = enumerate_presentations(knot, r)
            firsts = {}
            for pres in branches:
                first = firsts.setdefault(pres.key, pres.components)
                assert pres.components is first
                assert first == rebuilt_components(knot, r, pres.sign_choice)
                assert pres.key == class_key(pres)
            assert branches[0].surgery.classes == firsts
