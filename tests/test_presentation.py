"""Conversion into (+/-1)-chains, continued fractions, and linking data."""

import random
from dataclasses import replace
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
    Presentation,
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
        assert expansion.total_stabilizations == 0

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
            (c.knot.tb, c.knot.rot, c.contact_sign, c.parent, c.stabilizations)
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
        assert pres.components[0].stabilizations == 0

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
        assert [c.stabilizations for c in pres.components] == [0, 0]
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
        expand = presentation.expand_negative
        monkeypatch.setattr(
            presentation, "expand_negative", lambda r: calls.append(r) or expand(r)
        )
        presentation._conversion_plan.cache_clear()
        try:
            branches = enumerate_presentations(LegendrianUnknot(-1, 0), -11)
        finally:
            presentation._conversion_plan.cache_clear()
        assert calls == [Fraction(-11)]
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
        both_plus = replace(pres, sign_choice=(1, 1))
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
            assert all(c.knot == k and c.stabilizations == 0 for c in plus)
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
                replace(
                    c,
                    knot=LegendrianUnknot(c.knot.tb, -c.knot.rot),
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
