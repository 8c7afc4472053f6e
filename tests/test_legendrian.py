"""Legendrian unknot invariants, stabilization, and the topological condition."""

import random

import pytest

from contact_kirby.errors import InvalidInputError, InvalidLegendrianError
from contact_kirby.legendrian import (
    ExternalKnot,
    LegendrianUnknot,
    kirby_topological_condition,
    mirror,
    stabilize,
)


class TestValidateUnknot:
    def test_standard_unknot(self):
        k = LegendrianUnknot(-1, 0)
        assert (k.tb, k.rot) == (-1, 0)

    def test_canonical_candidate_m3(self):
        k = LegendrianUnknot(-3, -2)
        assert (k.tb, k.rot) == (-3, -2)

    def test_parity_violation(self):
        with pytest.raises(InvalidLegendrianError, match="parity"):
            LegendrianUnknot(-2, 0)

    def test_positive_tb(self):
        with pytest.raises(InvalidLegendrianError, match="tb"):
            LegendrianUnknot(0, 0)

    def test_bennequin_violation(self):
        with pytest.raises(InvalidLegendrianError, match="Bennequin"):
            LegendrianUnknot(-1, 2)

    def test_dataclass_constructor_validates_too(self):
        with pytest.raises(InvalidLegendrianError):
            LegendrianUnknot(-1, 1)

    @pytest.mark.parametrize("tb, rot", [(-2, 1.0), (-1.0, 0), (-2, True)])
    def test_invariants_must_be_exact_ints(self, tb, rot):
        # each pair equals a valid one, but is not a pair of ints
        with pytest.raises(InvalidLegendrianError, match="must be integers"):
            LegendrianUnknot(tb, rot)


class TestStabilize:
    def test_plus_on_candidate(self):
        k = stabilize(LegendrianUnknot(-2, -1), 1)
        assert (k.tb, k.rot) == (-3, 0)

    def test_minus_on_standard(self):
        k = stabilize(LegendrianUnknot(-1, 0), -1)
        assert (k.tb, k.rot) == (-2, -1)

    def test_opposite_signs_cancel_rot(self):
        k = LegendrianUnknot(-1, 0)
        double = stabilize(stabilize(k, 1), -1)
        assert (double.tb, double.rot) == (k.tb - 2, k.rot)

    def test_bad_sign(self):
        with pytest.raises(InvalidInputError):
            stabilize(LegendrianUnknot(-1, 0), 2)

    @pytest.mark.parametrize("sign", [1.0, True, -1.0])
    def test_sign_must_be_an_exact_int(self, sign):
        with pytest.raises(InvalidInputError, match="sign must be"):
            stabilize(LegendrianUnknot(-1, 0), sign)

    def test_always_valid_random_sequences(self):
        rng = random.Random(424242)
        for _ in range(300):
            tb = -rng.randint(1, 8)
            rot_bound = -1 - tb
            rot = rng.choice(
                [r for r in range(-rot_bound, rot_bound + 1) if (r - tb - 1) % 2 == 0]
            )
            k = LegendrianUnknot(tb, rot)
            signs = [rng.choice((1, -1)) for _ in range(rng.randint(0, 10))]
            out = k
            for s in signs:
                out = stabilize(out, s)  # constructor re-validates every step
            assert out.tb == k.tb - len(signs)
            change = out.rot - k.rot
            assert abs(change) <= len(signs)
            assert (change - len(signs)) % 2 == 0


class TestKirbyCondition:
    def test_plus_branch(self):
        assert kirby_topological_condition(3, 4) == 1

    def test_minus_branch(self):
        assert kirby_topological_condition(3, 2) == -1

    def test_equal_framing_excluded(self):
        assert kirby_topological_condition(3, 3) is None

    def test_matches_unit_distance(self):
        for m in range(1, 20):
            for n in range(-2, 25):
                hit = kirby_topological_condition(m, n) is not None
                assert hit == (abs(n - m) == 1)

    def test_rot_independent(self):
        # the condition never sees rot, so it is mirror invariant by construction
        assert kirby_topological_condition(4, 5) == kirby_topological_condition(4, 5)

    def test_m_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            kirby_topological_condition(0, 1)


class TestMirrorAndExternal:
    def test_mirror_flips_rot(self):
        assert mirror(LegendrianUnknot(-3, 2)) == LegendrianUnknot(-3, -2)

    def test_external_knot_keeps_invariants(self):
        ext = ExternalKnot(LegendrianUnknot(-1, 0), -1)
        assert ext.knot.tb == -1
        assert ext.lk_with_original == -1

    @pytest.mark.parametrize("lk", [1.5, 1.0, True, "1", None])
    def test_external_knot_takes_only_an_int_lk(self, lk):
        with pytest.raises(InvalidInputError, match=rf"\(got type {type(lk).__name__}\)"):
            ExternalKnot(LegendrianUnknot(-1, 0), lk)


class TestLibraryInputTypes:
    """A wrong type is refused by name, never carried to a raw AttributeError."""

    def test_external_knot_takes_only_a_legendrian_unknot(self):
        with pytest.raises(InvalidInputError, match=r"LegendrianUnknot \(got type str\)"):
            ExternalKnot("x", 1)

    def test_kirby_condition_takes_only_ints(self):
        with pytest.raises(InvalidInputError, match=r"\(got types float and float\)"):
            kirby_topological_condition(2.0, 3.0)


class TestBoundedMessages:
    def test_a_long_stabilization_sign_is_cut(self):
        with pytest.raises(InvalidInputError) as info:
            stabilize(LegendrianUnknot(-1, 0), "x" * 100000)
        assert len(str(info.value)) < 200
        assert str(info.value).endswith("x" * 20 + "... (100000 characters)")

    @pytest.mark.parametrize("sign, shown", [("x", "x"), (2, "2"), (1.5, "1.5"), (True, "True")])
    def test_a_short_stabilization_sign_reads_as_before(self, sign, shown):
        with pytest.raises(InvalidInputError) as info:
            stabilize(LegendrianUnknot(-1, 0), sign)
        assert str(info.value) == f"stabilization sign must be +1 or -1, got {shown}"
