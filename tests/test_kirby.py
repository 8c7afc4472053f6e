"""Gating and classification of candidate diagrams."""

import pytest

from contact_kirby.errors import GateRejectionError
from contact_kirby.exact import det
from contact_kirby.kirby import (
    CONSISTENT_WITH_STANDARD_TIGHT,
    OVERTWISTED_CERTIFIED,
    ZERO_SURGERY_REASON,
    PresentationVerdict,
    classify,
    emit_table,
    gate,
)
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot, kirby_topological_condition
from contact_kirby.presentation import enumerate_presentations, linking_matrix
from contact_kirby.transform import BennequinVerdict, invariants_after_surgery, invariants_by_inverse


class TestGate:
    def test_plus_branch_accepted(self):
        d = gate(3, 4, -2)
        assert d.branch == 1
        assert d.collection == "C2"

    def test_minus_branch_accepted(self):
        d = gate(3, 2, -2)
        assert d.branch == -1
        assert d.collection == "C1"

    def test_default_rot(self):
        assert gate(4, 5).rot == -3
        assert gate(1, 2).rot == 0

    def test_equal_framing_rejected(self):
        with pytest.raises(GateRejectionError) as info:
            gate(3, 3, -2)
        assert info.value.condition == "n = m +/- 1"

    def test_non_positive_m_rejected(self):
        with pytest.raises(GateRejectionError) as info:
            gate(0, 1, 0)
        assert info.value.condition == "m >= 1"

    def test_negative_framing_rejected(self):
        with pytest.raises(GateRejectionError) as info:
            gate(1, -1, 0)
        assert info.value.condition == "n >= 0"

    def test_invalid_rot_rejected(self):
        with pytest.raises(GateRejectionError) as info:
            gate(3, 4, 5)
        assert info.value.condition == "valid unknot"

    @pytest.mark.parametrize(
        "m, n", [(2, True), (2, 3.0), (2.0, 3), (True, 2), ("2", 3), (2, None), (2, "x" * 10 ** 5)]
    )
    def test_m_and_n_must_be_ints(self, m, n):
        # the first four equal an admitted (m, n); the long string is not repeated
        for args in ((m, n), (m, n, -1)):
            with pytest.raises(GateRejectionError) as info:
                gate(*args)
            assert info.value.condition == "m, n integers"
            assert str(info.value).endswith(f"(got types {type(m).__name__} and {type(n).__name__})")
            assert len(str(info.value)) < 100

    def test_the_diagram_keeps_the_knot_and_branch_its_gate_built(self):
        for m in range(1, 9):
            for n in (m - 1, m + 1):
                for rot in range(1 - m, m, 2):
                    d = gate(m, n, rot)
                    assert d.knot is d.knot
                    assert d.knot == LegendrianUnknot(-m, rot)
                    assert d.branch == kirby_topological_condition(m, n)

    def test_distinct_conditions(self):
        conditions = set()
        for args in ((0, 1, 0), (1, -1, 0), (3, 3, -2), (3, 4, 5), (2, 3.0, -1)):
            try:
                gate(*args)
            except GateRejectionError as err:
                conditions.add(err.condition)
        assert len(conditions) == 5


class TestClassify:
    def test_the_largest_table_row_is_under_the_library_bound(self):
        # 1001 components: the last C2 row of table --m-max 1000
        report = classify(gate(1000, 1001))
        assert report.verdicts == (
            PresentationVerdict((1,), -2, 1999),
            PresentationVerdict((-1,), -2, -1),
        )
        assert len(enumerate_presentations(report.diagram.knot, 1001)[0].components) == 1001

    def test_m2_increase_branch(self):
        report = classify(gate(2, 3))
        assert report.collection == "C2"
        outcomes = {
            (v.tb_new, v.rot_new): v.status for v in report.verdicts
        }
        assert outcomes == {
            (-2, 3): OVERTWISTED_CERTIFIED,
            (-2, -1): CONSISTENT_WITH_STANDARD_TIGHT,
        }
        assert report.survives

    def test_m1_exceptional_diagram(self):
        report = classify(gate(1, 2))
        assert report.collection == "C2"
        assert len(report.verdicts) == 2
        assert all(
            v.status == CONSISTENT_WITH_STANDARD_TIGHT for v in report.verdicts
        )
        assert {v.rot_new for v in report.verdicts} == {1, -1}
        assert all(v.tb_new == -2 for v in report.verdicts)
        assert all(v.bennequin.slack == 0 for v in report.verdicts)

    def test_m2_decrease_branch(self):
        report = classify(gate(2, 1))
        assert report.collection == "C1"
        assert all(v.status == OVERTWISTED_CERTIFIED for v in report.verdicts)
        assert all(v.tb_new == 0 for v in report.verdicts)
        assert not report.survives

    def test_zero_surgery_shortcut(self):
        report = classify(gate(1, 0))
        assert report.collection == "C1"
        assert len(report.verdicts) == 1
        verdict = report.verdicts[0]
        assert verdict.status == OVERTWISTED_CERTIFIED
        assert verdict.reason == ZERO_SURGERY_REASON
        assert verdict.tb_new is None and verdict.rot_new is None
        assert not report.survives

    def test_verdicts_match_fresh_recomputation(self):
        for m, n in ((2, 3), (4, 5), (3, 2), (5, 4)):
            report = classify(gate(m, n))
            diagram = report.diagram
            ext = ExternalKnot(LegendrianUnknot(-1, 0), diagram.branch)
            fresh = enumerate_presentations(diagram.knot, diagram.n)
            assert len(fresh) == len(report.verdicts)
            for pres, verdict in zip(fresh, report.verdicts):
                assert pres.sign_choice == verdict.sign_choice
                invariants = invariants_after_surgery(pres, ext)
                assert invariants.tb_new == verdict.tb_new
                assert invariants.rot_new == verdict.rot_new

    def test_classified_presentations_are_homology_spheres(self):
        for m, n in ((1, 2), (2, 3), (2, 1), (5, 6), (5, 4)):
            diagram = gate(m, n)
            for pres in enumerate_presentations(diagram.knot, diagram.n):
                assert abs(det(linking_matrix(pres))) == 1

    def test_a_verdict_derives_its_bennequin_check(self):
        # tb + |rot| = 3: no stored check can call this branch tight
        verdict = PresentationVerdict((1,), -2, 5)
        assert verdict.bennequin == BennequinVerdict(False, -4)
        assert verdict.status == OVERTWISTED_CERTIFIED
        assert PresentationVerdict((-1,), -2, -1).status == CONSISTENT_WITH_STANDARD_TIGHT
        assert PresentationVerdict((), None, None, ZERO_SURGERY_REASON).bennequin is None

    def test_every_computed_verdict_carries_bennequin(self):
        for report in emit_table(6):
            for verdict in report.verdicts:
                if verdict.reason is None:
                    assert verdict.bennequin is not None
                    assert verdict.bennequin.satisfied == (
                        verdict.status == CONSISTENT_WITH_STANDARD_TIGHT
                    )


class TestEmitTable:
    def test_m_max_one(self):
        reports = emit_table(1)
        assert len(reports) == 2
        zero, exceptional = reports
        assert zero.collection == "C1" and not zero.survives
        assert zero.verdicts[0].reason == ZERO_SURGERY_REASON
        assert exceptional.collection == "C2"
        assert all(
            v.status == CONSISTENT_WITH_STANDARD_TIGHT
            for v in exceptional.verdicts
        )

    def test_m_max_three(self):
        reports = emit_table(3)
        assert len(reports) == 6
        for report in reports:
            if report.collection == "C1":
                assert not report.survives
            else:
                assert report.survives
                if report.diagram.m >= 2:
                    statuses = [v.status for v in report.verdicts]
                    assert statuses.count(OVERTWISTED_CERTIFIED) == 1
                    assert statuses.count(CONSISTENT_WITH_STANDARD_TIGHT) == 1

    def test_empty(self):
        assert emit_table(0) == []

    def test_deterministic_order(self):
        reports = emit_table(4)
        keys = [(r.diagram.m, r.diagram.n) for r in reports]
        assert keys == [(m, n) for m in range(1, 5) for n in (m - 1, m + 1)]


class TestFullRangeInvariants:
    def test_increase_family_branch_counts_to_50(self):
        # exactly one survivor per diagram for m >= 2, both branches at m = 1
        for m in range(1, 51):
            statuses = [v.status for v in classify(gate(m, m + 1)).verdicts]
            assert len(statuses) == 2
            expected_overtwisted = 0 if m == 1 else 1
            assert statuses.count(OVERTWISTED_CERTIFIED) == expected_overtwisted
            assert statuses.count(CONSISTENT_WITH_STANDARD_TIGHT) == 2 - expected_overtwisted

    def test_decrease_family_never_survives_to_50(self):
        for m in range(1, 51):
            assert not classify(gate(m, m - 1)).survives


class TestMirrorCoverage:
    def test_mirrored_diagram_same_statuses(self):
        # the rot-negated diagram classifies identically branch-for-branch
        for m, n in ((3, 4), (3, 2), (4, 5)):
            base = classify(gate(m, n, -(m - 1)))
            flipped = classify(gate(m, n, m - 1))
            base_map = {v.sign_choice: v for v in base.verdicts}
            for verdict in flipped.verdicts:
                twin = base_map[tuple(-s for s in verdict.sign_choice)]
                assert verdict.status == twin.status
                assert verdict.tb_new == twin.tb_new
                assert verdict.rot_new == -twin.rot_new


class TestSweepAgainstTheDenseSolve:
    def test_every_diagram_up_to_m_12(self):
        """Every m <= 12, every valid rot, both collections: verdicts equal a dense solve per branch."""
        seen = set()
        for m in range(1, 13):
            for n in (m - 1, m + 1):
                for rot in range(-(m - 1), m, 2):
                    report = classify(gate(m, n, rot))
                    seen.add(report.collection)
                    if n == 0:
                        assert [v.reason for v in report.verdicts] == [ZERO_SURGERY_REASON]
                        continue
                    diagram = report.diagram
                    ext = ExternalKnot(LegendrianUnknot(-1, 0), diagram.branch)
                    branches = enumerate_presentations(diagram.knot, n)
                    assert [v.sign_choice for v in report.verdicts] == [p.sign_choice for p in branches]
                    for pres, verdict in zip(branches, report.verdicts):
                        dense = invariants_by_inverse(pres, ext)
                        assert (verdict.tb_new, verdict.rot_new) == (dense.tb_new, dense.rot_new)
        assert seen == {"C1", "C2"}
