"""Correctness gate for every job's stdout.

The checks restate the paper's results and the exact identities from the
job's own facts, never from the program: table rows follow the C1/C2
screening result, every presentation has ``|det M| = |p + q*tb|``, the
sign branches are all 2^budget distinct strings, and a seeded sample of
branches is rebuilt from its sign string and, for ``analyze``, re-solved
with the test suite's ``gauss_solve`` oracle.  Digests pinned in
``digests.json`` must match byte for byte where an argv has one.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
SAMPLE_BRANCHES = 6
CONSISTENT = "consistent-with-standard-tight"


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(job, stdout: bytes, seed: int, digests: dict, solve) -> tuple:
    """Return ``(problems, branches)`` for one job's stdout.

    ``problems`` is a list of messages, empty when the output is correct;
    ``branches`` counts the verdicts (``table``) or presentations checked.
    ``solve(rows, rhs)`` is the exact linear solver used for re-solving.
    """
    pinned = digests.get(job.key)
    if pinned is not None and pinned != sha256(stdout):
        return [f"stdout digest differs from the pinned {pinned[:12]}"], 0
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"], 0
    if job.kind == "table":
        return check_table(doc, job.facts["m_max"])
    rng = random.Random(f"{seed}:{job.key}")
    return check_presentations(doc, job, rng, solve)


def check_table(doc, m_max: int) -> tuple:
    problems = []
    reports = doc.get("reports", [])
    if doc.get("command") != "table" or len(reports) != 2 * m_max:
        return [f"expected {2 * m_max} table rows"], 0
    branches = 0
    for row, report in enumerate(reports):
        m, n = report["diagram"]["m"], report["diagram"]["n"]
        row_m = row // 2 + 1
        expected = (row_m, row_m + (1 if row % 2 else -1))
        if (m, n) != expected:
            problems.append(f"row {row} is (m, n) = {(m, n)}, expected {expected}")
            continue
        verdicts = report["verdicts"]
        branches += len(verdicts)
        survivors = 0
        for v in verdicts:
            if v["status"] == CONSISTENT:
                survivors += 1
            if v["tb_new"] is not None:
                tight = v["tb_new"] + abs(v["rot_new"]) <= -1
                if tight != (v["status"] == CONSISTENT):
                    problems.append(f"m={m} n={n} {v['signs']}: status disagrees with Bennequin")
        if report["survives"] != (survivors > 0):
            problems.append(f"m={m} n={n}: survives flag disagrees with its verdicts")
        if n == m - 1:
            if survivors:
                problems.append(f"C1 row m={m} has a survivor")
            continue
        if any(v["tb_new"] != -2 for v in verdicts):
            problems.append(f"C2 row m={m} has tb_new != -2")
        for sign, rot_new in (("+", 2 * m - 1), ("-", -1)):
            rots = [v["rot_new"] for v in verdicts if set(v["signs"]) == {sign}]
            if rots != [rot_new]:
                problems.append(f"C2 row m={m}: all-{sign} rot_new is {rots}, not {rot_new}")
        if survivors != (2 if m == 1 else 1):
            problems.append(f"C2 row m={m} has {survivors} survivors")
    return problems, branches


def check_presentations(doc, job, rng, solve) -> tuple:
    facts = job.facts
    presentations = doc.get("presentations", [])
    if doc.get("command") != job.kind:
        return [f"command is {doc.get('command')!r}, expected {job.kind!r}"], 0
    problems = []
    budget = facts["budget"]
    signs = {p["signs"] for p in presentations}
    if len(presentations) != 2 ** budget or len(signs) != 2 ** budget:
        problems.append(
            f"{len(signs)} distinct of {len(presentations)} sign strings, "
            f"expected {2 ** budget}"
        )
    if any(len(s) != budget or s.strip("+-") for s in signs):
        problems.append(f"a sign string is not {budget} signs over '+' and '-'")
    order = abs(facts["p"] + facts["q"] * facts["tb"])
    if any(abs(p["determinant"]) != order for p in presentations):
        problems.append(f"some |det M| differs from |p + q*tb| = {order}")
    if job.kind == "convert" and any(
        len(p["components"]) != facts["components"] for p in presentations
    ):
        problems.append(f"a presentation does not have {facts['components']} components")
    if problems:
        return problems, 0
    for pres in rng.sample(presentations, min(SAMPLE_BRANCHES, len(presentations))):
        problems.extend(_check_branch(pres, facts, solve))
    return problems, len(presentations)


def _check_branch(pres, facts, solve) -> list:
    """Rebuild one branch from its sign string; re-solve it when analyzed."""
    label = f"branch {pres['signs'] or '(none)'}"
    comps = pres["components"]
    queue = iter(pres["signs"])
    tb, rot = facts["tb"], facts["rot"]
    for comp in comps:
        stabs = comp["stabilizations"]
        taken = [next(queue, None) for _ in range(stabs["plus"] + stabs["minus"])]
        if None in taken or taken.count("+") != stabs["plus"]:
            return [f"{label}: component {comp['index']} disagrees with the signs"]
        tb -= len(taken)
        rot += stabs["plus"] - stabs["minus"]
        if (comp["tb"], comp["rot"]) != (tb, rot):
            return [f"{label}: component {comp['index']} has wrong (tb, rot)"]
    if next(queue, None) is not None:
        return [f"{label}: signs left over after the last component"]
    n = len(comps)
    expected = [
        [
            comps[i]["tb"] + comps[i]["contact_coeff"] if i == j else comps[min(i, j)]["tb"]
            for j in range(n)
        ]
        for i in range(n)
    ]
    if pres["linking_matrix"] != expected:
        return [f"{label}: linking matrix breaks the parallel-copy rule"]
    if "invariants" not in pres:
        return []
    link = [facts["lk"]] * n
    x = solve(expected, link)
    tb_new = facts["ext_tb"] - sum(a * b for a, b in zip(link, x))
    rot_new = facts["ext_rot"] - sum(c["rot"] * b for c, b in zip(comps, x))
    got = pres["invariants"]
    if (got["tb_new"], got["rot_new"]) != (tb_new, rot_new):
        return [f"{label}: (tb_new, rot_new) = {(got['tb_new'], got['rot_new'])}, oracle gives {(tb_new, rot_new)}"]
    if got["bennequin"]["slack"] != -1 - tb_new - abs(rot_new):
        return [f"{label}: Bennequin slack is wrong"]
    return []

