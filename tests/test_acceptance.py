"""Acceptance suite: every criterion exact, one printed verdict line each.

All checks are symbolic identities, so the tolerance everywhere is zero:
equality of arbitrary-precision integers and reduced fractions.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import functools
import json
import random
from fractions import Fraction

from contact_kirby.cli import main
from contact_kirby.exact import IntMatrix, RationalMatrix, det, invert
from contact_kirby.kirby import (
    CONSISTENT_WITH_STANDARD_TIGHT,
    OVERTWISTED_CERTIFIED,
    ZERO_SURGERY_REASON,
    classify,
    gate,
)
from contact_kirby.legendrian import ExternalKnot, LegendrianUnknot
from contact_kirby.presentation import (
    convert,
    enumerate_presentations,
    evaluate_cf,
    expand_negative,
    linking_matrix,
    stabilization_budget,
)
from contact_kirby.transform import (
    bennequin,
    framing_unknot_tb_shift,
    invariants_after_surgery,
)

from oracles import adjugate_inverse, chain_family_inverse, chain_family_matrix

M_MAX = 50
M_MAX_BRANCHES = 400
FRAMING_UNKNOT = LegendrianUnknot(-1, 0)


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")
        return wrapper
    return decorate


def candidate_knot(m):
    return LegendrianUnknot(-m, -(m - 1))


@criterion(1, "closed-form linking matrix and inverse, m <= 50")
def test_criterion_1_matrix_regression():
    for m in range(1, M_MAX + 1):
        pres = convert(candidate_knot(m), m + 1, [1])
        matrix = linking_matrix(pres)
        assert matrix == IntMatrix(chain_family_matrix(m))
        assert invert(matrix) == RationalMatrix(chain_family_inverse(m))


@criterion(2, "plus branch: rot_new 2m-1, tb_new -2, violation iff m >= 2")
def test_criterion_2_plus_branch():
    ext = ExternalKnot(FRAMING_UNKNOT, 1)
    for m in range(1, M_MAX + 1):
        pres = convert(candidate_knot(m), m + 1, [1])
        invariants = invariants_after_surgery(pres, ext)
        assert invariants.tb_new == -2
        assert invariants.rot_new == 2 * m - 1
        check = bennequin(invariants.tb_new, invariants.rot_new)
        assert check.satisfied == (m < 2)


@criterion(3, "minus branch: rot_new -1, tb_new -2, slack 0 for every m")
def test_criterion_3_minus_branch():
    # hand derivation frozen here: with C = (1-m, -m, ..., -m) and
    # M^-1 L = (m+1, -1, ..., -1), the pairing is
    # (1-m)(m+1) + m*m = 1, hence rot_new = 0 - 1 = -1 for every m.
    ext = ExternalKnot(FRAMING_UNKNOT, 1)
    for m in range(1, M_MAX + 1):
        pres = convert(candidate_knot(m), m + 1, [-1])
        invariants = invariants_after_surgery(pres, ext)
        assert invariants.tb_new == -2
        assert invariants.rot_new == -1
        assert bennequin(invariants.tb_new, invariants.rot_new).slack == 0


@criterion(4, "decrease family: tb_new 0 on every branch, no survivor")
def test_criterion_4_decrease_family():
    ext = ExternalKnot(FRAMING_UNKNOT, -1)
    for m in range(2, M_MAX + 1):
        for pres in enumerate_presentations(candidate_knot(m), m - 1):
            invariants = invariants_after_surgery(pres, ext)
            assert invariants.tb_new == 0
            assert not bennequin(invariants.tb_new, invariants.rot_new).satisfied
    zero = classify(gate(1, 0))
    assert zero.verdicts[0].reason == ZERO_SURGERY_REASON
    assert zero.verdicts[0].status == OVERTWISTED_CERTIFIED
    for m in range(1, M_MAX + 1):
        assert not classify(gate(m, m - 1)).survives


@criterion("2-4", "branch invariants and survivors of C2 and C1, m <= 400")
def test_criteria_2_to_4_branches_to_m_400():
    for m in range(1, M_MAX_BRANCHES + 1):
        report = classify(gate(m, m + 1))
        got = {v.signs_string: (v.tb_new, v.rot_new) for v in report.verdicts}
        assert got == {"+": (-2, 2 * m - 1), "-": (-2, -1)}
        survivors = [
            v.signs_string
            for v in report.verdicts
            if v.status == CONSISTENT_WITH_STANDARD_TIGHT
        ]
        assert survivors == (["+", "-"] if m == 1 else ["-"])
        if m >= 2:
            report = classify(gate(m, m - 1))
            assert all(v.tb_new == 0 for v in report.verdicts)
            assert not report.survives


@criterion(5, "m = 1 exceptional diagram: both branches survive")
def test_criterion_5_exceptional_diagram():
    report = classify(gate(1, 2))
    assert len(report.verdicts) == 2
    assert all(v.status == CONSISTENT_WITH_STANDARD_TIGHT for v in report.verdicts)
    assert {(v.tb_new, v.rot_new) for v in report.verdicts} == {(-2, 1), (-2, -1)}


@criterion(6, "continued-fraction round trip, 1000 random + family")
def test_criterion_6_round_trip():
    rng = random.Random(1000003)
    seen = 0
    while seen < 1000:
        num = -rng.randint(1, 200)
        den = rng.randint(1, 200)
        r = Fraction(num, den)
        coeffs = list(expand_negative(r).coeffs)
        assert all(c <= -2 for c in coeffs)
        assert evaluate_cf([coeffs[0] + 1] + coeffs[1:]) == r
        seen += 1
    for m in range(1, M_MAX + 1):
        expected = (-3,) + (-2,) * (m - 1)
        assert expand_negative(Fraction(-(m + 1), m)).coeffs == expected


@criterion(7, "determinant equals surgery homology order, 500 random + families")
def test_criterion_7_determinant_homology():
    rng = random.Random(65537)
    seen = 0
    while seen < 500:
        tb = -rng.randint(1, 6)
        rot = tb + 1 + 2 * rng.randint(0, -tb - 1)
        knot = LegendrianUnknot(tb, rot)
        num = rng.randint(-20, 20)
        den = rng.randint(1, 8)
        if num == 0:
            continue
        r = Fraction(num, den)
        signs = [rng.choice((1, -1)) for _ in range(stabilization_budget(r))]
        pres = convert(knot, r, signs)
        assert abs(det(linking_matrix(pres))) == abs(
            r.numerator + r.denominator * tb
        )
        seen += 1
    for m in range(1, M_MAX + 1):
        for n in (m - 1, m + 1):
            if n == 0:
                continue
            for pres in enumerate_presentations(candidate_knot(m), n):
                assert abs(det(linking_matrix(pres))) == 1


@criterion(8, "oracle equivalences: adjugate, framing shift, mirror symmetry")
def test_criterion_8_oracles():
    # exact inverse against the cofactor-adjugate oracle, dimension <= 6
    rng = random.Random(284)
    seen = 0
    while seen < 200:
        n = rng.randint(1, 6)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        matrix = IntMatrix(rows)
        if det(matrix) == 0:
            continue
        assert invert(matrix) == RationalMatrix(adjugate_inverse(rows))
        seen += 1

    # quadratic form against the first-principles framing-unknot shift
    for m in range(1, M_MAX + 1):
        ext = ExternalKnot(FRAMING_UNKNOT, 1)
        for pres in enumerate_presentations(candidate_knot(m), m + 1):
            assert invariants_after_surgery(pres, ext).tb_new == framing_unknot_tb_shift(1, -1)
        if m >= 2:
            ext = ExternalKnot(FRAMING_UNKNOT, -1)
            for pres in enumerate_presentations(candidate_knot(m), m - 1):
                assert invariants_after_surgery(pres, ext).tb_new == framing_unknot_tb_shift(-1, -1)

    # mirror symmetry: rot-negated diagrams classify identically
    for m in range(1, M_MAX + 1):
        for n in (m - 1, m + 1):
            if n == 0:
                continue
            base = classify(gate(m, n, -(m - 1)))
            flipped = classify(gate(m, n, m - 1))
            base_map = {v.sign_choice: v for v in base.verdicts}
            for verdict in flipped.verdicts:
                twin = base_map[tuple(-s for s in verdict.sign_choice)]
                assert verdict.status == twin.status
                assert verdict.tb_new == twin.tb_new
                assert verdict.rot_new == -twin.rot_new


@criterion(9, "CLI determinism and exit-code contract")
def test_criterion_9_cli(capsys):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def run_twice(*argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second
        return first

    code, out, _ = run_twice("expand", "-3/2")
    assert code == 0 and out.splitlines()[0] == "[-3, -2]"
    code, out, _ = run_twice("expand", "-1")
    assert code == 0 and out.splitlines()[0] == "[-2]"
    code, out, _ = run_twice("expand", "-6/5")
    assert code == 0 and out.splitlines()[0] == "[-3, -2, -2, -2, -2]"

    code, out, _ = run_twice("convert", "--tb", "-2", "--rot", "-1", "--coeff", "3")
    assert code == 0
    document = json.loads(out)
    assert len(document["presentations"]) == 2
    assert all(
        p["linking_matrix"] == [[-1, -2, -2], [-2, -4, -3], [-2, -3, -4]]
        for p in document["presentations"]
    )
    code, out, _ = run_twice("convert", "--tb", "-2", "--rot", "-1", "--coeff", "+1")
    assert code == 0
    assert json.loads(out)["presentations"][0]["linking_matrix"] == [[-1]]
    code, out, _ = run_twice("convert", "--tb", "-1", "--rot", "0", "--coeff", "2")
    assert code == 0
    pres = json.loads(out)["presentations"][0]
    assert pres["linking_matrix"] == [[0, -1], [-1, -3]]
    assert pres["determinant"] == -1

    code, out, _ = run_twice(
        "analyze", "--tb", "-2", "--rot", "-1", "--coeff", "3", "--lk", "1"
    )
    assert code == 0
    got = [
        (
            p["invariants"]["tb_new"],
            p["invariants"]["rot_new"],
            p["invariants"]["bennequin"]["satisfied"],
        )
        for p in json.loads(out)["presentations"]
    ]
    assert got == [(-2, 3, False), (-2, -1, True)]
    code, out, _ = run_twice(
        "analyze", "--tb", "-2", "--rot", "-1", "--coeff", "3", "--lk", "0"
    )
    assert code == 0
    assert all(
        (p["invariants"]["tb_new"], p["invariants"]["rot_new"]) == (-1, 0)
        for p in json.loads(out)["presentations"]
    )
    code, out, _ = run_twice(
        "analyze", "--tb", "-3", "--rot", "-2", "--coeff", "2", "--lk", "-1"
    )
    assert code == 0
    assert all(
        p["invariants"]["tb_new"] == 0 for p in json.loads(out)["presentations"]
    )

    code, out, _ = run_twice("classify", "--m", "2", "--n", "3")
    assert code == 0
    document = json.loads(out)
    assert document["collection"] == "C2" and document["survives"]

    code, _, err = run_twice("classify", "--m", "2", "--n", "2")
    assert code == 2 and "n = m +/- 1" in err

    code, out, _ = run_twice("table", "--m-max", "5", "--format", "json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 10
    assert all(
        not r["survives"] for r in reports if r["collection"] == "C1"
    )

    # exit 3: exact arithmetic cannot answer
    code, _, err = run_twice(
        "analyze", "--tb", "-2", "--rot", "-1", "--coeff", "2", "--lk", "1"
    )
    assert code == 3 and "singular" in err
    code, _, err = run_twice(
        "analyze", "--tb", "-1", "--rot", "0", "--coeff", "-3", "--lk", "1",
        "--signs", "++",
    )
    assert code == 3 and "not an integer" in err

    # exit 2: malformed input
    code, _, _ = run_twice("expand", "0.5")
    assert code == 2
    code, _, _ = run_twice("convert", "--tb", "-1", "--rot", "0", "--coeff", "0")
    assert code == 2
