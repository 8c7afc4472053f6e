"""Tests of the benchmark itself: inputs, span arithmetic and the checker."""

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import checks
import run
import tracing
import workloads

gauss_solve = run.use_checkout_sources()


def cli_doc(*argv):
    from contact_kirby import cli

    code, stdout, _ = run.in_process(cli.main, argv)
    assert code == 0
    return stdout


def test_same_seed_same_argv():
    for make_jobs in workloads.WORKLOADS.values():
        assert [j.argv for j in make_jobs(7)] == [j.argv for j in make_jobs(7)]
    assert [j.argv for j in workloads.branches_jobs(7)] != [
        j.argv for j in workloads.branches_jobs(8)
    ]


def test_seed_keeps_the_job_shapes():
    def shapes(jobs):
        return sorted((j.facts["budget"], j.facts.get("components"), j.facts["q"] == 1) for j in jobs)

    for make_jobs in (workloads.branches_jobs, workloads.convert_jobs):
        assert shapes(make_jobs(1)) == shapes(make_jobs(2))


def test_analyze_inputs_are_integral_by_construction():
    for seed in range(20):
        for job in workloads.branches_jobs(seed):
            f = job.facts
            assert f["lk"] % abs(f["p"] + f["q"] * f["tb"]) == 0


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7].
    names = [0, 1, 2, 3]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(names, starts, ends, parents) == {
        0: (1, 3.0), 1: (1, 3.0), 2: (1, 3.0), 3: (1, 1.0),
    }
    # two calls of one name add up
    assert tracing.self_times([5, 5], [0.0, 2.0], [1.0, 4.0], [-1, -1]) == {5: (2, 3.0)}


def test_elimination_ops_follow_the_loop_bounds():
    assert tracing.elimination_ops("exact.det", 1) == 0
    assert tracing.elimination_ops("exact.det", 3) == 5  # 2^2 + 1^2
    assert tracing.elimination_ops("exact.invert", 2) == 1 + 2 + 2 * (1 + 4)


def test_checker_rejects_one_flipped_table_rot():
    stdout = cli_doc("table", "--m-max", "4", "--format", "json")
    doc = json.loads(stdout)
    # 14 verdicts: m=1 and m=2 have a one-branch C1 row, every other row two
    assert checks.check_table(doc, 4) == ([], 14)
    bad = copy.deepcopy(doc)
    verdict = bad["reports"][5]["verdicts"][1]
    verdict["rot_new"] = -verdict["rot_new"]
    problems, _ = checks.check_table(bad, 4)
    assert problems


def test_checker_rejects_one_flipped_branch_rot():
    argv = ("analyze", "--tb", "-1", "--rot", "0", "--coeff", "3/2", "--lk", "2", "--format", "json")
    facts = workloads._diagram_facts(-1, 0, Fraction(3, 2))
    facts.update(lk=2, ext_tb=-1, ext_rot=0)
    job = workloads.Job(argv, "analyze", facts)
    stdout = cli_doc(*argv)
    assert checks.check_output(job, stdout, 0, {}, gauss_solve) == ([], 4)
    doc = json.loads(stdout)
    doc["presentations"][2]["invariants"]["rot_new"] += 2
    bad = json.dumps(doc).encode()
    problems, _ = checks.check_output(job, bad, 0, {}, gauss_solve)
    assert problems
    pinned = {job.key: checks.sha256(stdout)}
    assert checks.check_output(job, bad, 0, pinned, gauss_solve)[0]


def test_traced_stdout_matches_and_bindings_are_restored():
    from contact_kirby import cli, transform

    argv = ("analyze", "--tb", "-2", "--rot", "1", "--coeff", "3", "--lk", "1", "--format", "json")
    original = transform.invert
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    restore = tracer.install()
    try:
        assert transform.invert is not original
        traced = run.in_process(traced_main, argv)
    finally:
        tracer.uninstall(restore)
    assert transform.invert is original
    assert traced[:2] == run.in_process(cli.main, argv)[:2]
    calls = {
        tracing.SPAN_NAMES[c]: n
        for c, (n, _) in tracing.self_times(tracer.name, tracer.start, tracer.end, tracer.parent).items()
    }
    assert calls["cli.main"] == 1
    assert calls["exact.invert"] == calls["exact.det"] == calls["presentation.convert"] == 2


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(spec["command"][1:]) <= {"perfbench/run.py"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "checks.py", "tracing.py", "workloads.py", "launcher.py", "digests.json"):
        shutil.copy(here / name, tmp_path / "perfbench" / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == b""
