"""Seeded job lists for the three workloads.

A job is one ``contact-kirby`` invocation: the argv the CLI receives plus
the facts the checker needs to judge its stdout.  Every job list is built
from the seed alone, never by running the program and filtering.  Each
workload repeats a fixed multiset of job *shapes* (sizes); the seed picks
everything that does not change the amount of work (knot rotation, linking
number, how stabilizations spread over the chain, job order), so runs on
different seeds measure the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# table: the (m+1)-dimensional dense solve dominates; 2 branches per row.
TABLE_M_MAX = 40

# branches: (m, q) with coefficient m + 1/q on tb = -m.  The budget is q,
# so 2^q sign branches of (m+1)-dimensional matrices, all unimodular.
BRANCH_SHAPES = ((1, 12), (2, 11), (3, 10), (4, 9))
# One more branches job: ROADMAP's coefficient -12 on tb = -1, made
# integral by taking lk a multiple of |p + q*tb| = 13.
ROADMAP_COEFF = -12

# convert: (number of chain components k, stabilization budget B); three
# jobs keep a pass near 2 s, so each job gets about 14 reps per 30 s run.
CONVERT_SHAPES = ((4, 12), (7, 11), (10, 10))

SETUP_ARGV = ("expand", "-2")
SETUP_STDOUT = b"[-3]\nround-trip: -2\n"


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy."""

    argv: tuple
    kind: str  # "table", "analyze" or "convert"
    facts: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def cf_value(entries) -> Fraction:
    """Value of the negative continued fraction c1 - 1/(c2 - 1/(... - 1/ck))."""
    value = Fraction(entries[-1])
    for c in reversed(entries[:-1]):
        value = c - 1 / value
    return value


def stabilization_budget(coefficient: Fraction) -> int:
    """Stabilizations of the (+/-1)-conversion: peel (+1)s, expand the rest.

    Written from the conversion rule, independently of the package, so the
    checker can hold the program to it.
    """
    current = coefficient
    while current > 0 and current != 1:
        current = current / (1 - current)
    if current == 1:
        return 0
    entries = []
    x = current
    while True:
        c = x.numerator // x.denominator
        entries.append(c)
        if x == c:
            break
        x = 1 / (c - x)
    entries[0] -= 1
    return sum(-(c + 2) for c in entries)


def _rot_choices(m: int) -> list:
    """Rotation numbers of Legendrian unknots with tb = -m."""
    return list(range(-(m - 1), m, 2))


def _diagram_facts(tb, rot, coefficient: Fraction) -> dict:
    return {
        "tb": tb,
        "rot": rot,
        "p": coefficient.numerator,
        "q": coefficient.denominator,
        "budget": stabilization_budget(coefficient),
    }


def _analyze_job(rng, tb, coefficient: Fraction, lk_unit: int) -> Job:
    rot = rng.choice(_rot_choices(-tb))
    lk = rng.choice((-1, 1)) * rng.randint(1, 3) * lk_unit
    argv = (
        "analyze", "--tb", str(tb), "--rot", str(rot),
        "--coeff", str(coefficient), "--lk", str(lk), "--format", "json",
    )
    facts = _diagram_facts(tb, rot, coefficient)
    facts.update(lk=lk, ext_tb=-1, ext_rot=0)
    return Job(argv, "analyze", facts)


def table_jobs(seed: int) -> list:
    """The table screen does not depend on the seed."""
    argv = ("table", "--m-max", str(TABLE_M_MAX), "--format", "json")
    return [Job(argv, "table", {"m_max": TABLE_M_MAX})]


def branches_jobs(seed: int) -> list:
    rng = random.Random(f"branches:{seed}")
    jobs = [
        _analyze_job(rng, -m, m + Fraction(1, q), 1) for m, q in BRANCH_SHAPES
    ]
    coefficient = Fraction(ROADMAP_COEFF)
    jobs.append(_analyze_job(rng, -1, coefficient, abs(ROADMAP_COEFF - 1)))
    rng.shuffle(jobs)
    return jobs


def convert_jobs(seed: int) -> list:
    rng = random.Random(f"convert:{seed}")
    jobs = []
    for k, budget in CONVERT_SHAPES:
        cuts = sorted(rng.randint(0, budget) for _ in range(k - 1))
        counts = [b - a for a, b in zip([0] + cuts, cuts + [budget])]
        entries = [-(s + 2) for s in counts]
        coefficient = cf_value([entries[0] + 1] + entries[1:])
        m = rng.randint(1, 4)
        rot = rng.choice(_rot_choices(m))
        argv = (
            "convert", "--tb", str(-m), "--rot", str(rot),
            "--coeff", str(coefficient), "--format", "json",
        )
        facts = _diagram_facts(-m, rot, coefficient)
        facts["components"] = k
        jobs.append(Job(argv, "convert", facts))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "table": table_jobs,
    "branches": branches_jobs,
    "convert": convert_jobs,
}
