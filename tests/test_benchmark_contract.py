"""The benchmark's correctness contract, on every test run.

CI has no benchmark step of its own: these tests are the whole
contract it checks.  The benchmark's own modules are
imported from ``perfbench/`` and only read: on seed 0, two traced passes
over each workload must agree on every count and output, each output
must equal its pinned digest and the untraced run, and the traced counts
keep the dense-call pins (one document per job, one dense ``invert`` and
``det`` per Legendrian class on ``branches``, one linking matrix and one
``det`` per ``convert`` job, none of the three on ``table``).  Seed 1 has
no pinned digests, so its outputs pass the benchmark's own checker,
which rebuilds sampled branches and re-solves them with ``gauss_solve``.
Last, ``perfbench/run.py`` runs each workload on seeds 0 and 1 as a
child, the way the benchmark is run, so its outputs come from
``launcher.py`` and ``cli.entry`` rather than from ``cli.main``
in-process; it must report every output correct.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import checks
import run
import tracing
import workloads

gauss_solve = run.use_checkout_sources()

from contact_kirby import cli

# cli.canonical_json runs once per job, a document each: the job counts
DOCUMENTS = {"table": 1, "branches": 5, "convert": 3}


@pytest.fixture(scope="module")
def traced():
    """Per workload on seed 0: its jobs and two traced rounds with one tracer."""
    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    rounds = {}
    for workload, make_jobs in workloads.WORKLOADS.items():
        jobs = make_jobs(0)
        rounds[workload] = jobs, [run.traced_round(jobs, tracer, traced_main) for _ in range(2)]
    return rounds


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_two_traced_rounds_agree_with_the_pins_and_the_untraced_run(traced, workload):
    jobs, ((outputs, _, counts, _), (again, _, counts_again, _)) = traced[workload]
    assert counts == counts_again
    assert outputs == again
    digests = checks.load_digests()
    assert outputs == [(0, digests[job.key]) for job in jobs]
    untraced = [run.in_process(cli.main, job.argv)[:2] for job in jobs]
    assert outputs == [(code, checks.sha256(stdout)) for code, stdout in untraced]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_document_per_job(traced, workload):
    jobs, ((_, _, counts, _), _) = traced[workload]
    assert counts["cli.canonical_json.calls"] == len(jobs) == DOCUMENTS[workload]


def test_branches_runs_one_dense_invert_and_det_per_class(traced):
    _, ((_, _, counts, _), _) = traced["branches"]
    assert counts["exact.invert.calls"] == counts["exact.det.calls"] == counts["classes"]


def test_convert_builds_one_linking_matrix_and_takes_one_det_per_job(traced):
    _, ((_, _, counts, _), _) = traced["convert"]
    assert counts["exact.det.calls"] == counts["presentation.linking_matrix.calls"] == 3


def test_table_stays_on_the_continuant_solve(traced):
    _, ((_, _, counts, _), _) = traced["table"]
    dense = ("exact.invert.calls", "exact.det.calls", "presentation.linking_matrix.calls")
    assert [counts[name] for name in dense] == [0, 0, 0]
    assert counts["transform.invariants.calls"] == counts["branches"]


@pytest.mark.parametrize("workload", ["branches", "convert"])
def test_seed_1_passes_the_checker_and_its_re_solve(workload):
    for job in workloads.WORKLOADS[workload](1):
        code, stdout, _ = run.in_process(cli.main, job.argv)
        assert code == 0, job.key
        problems, _ = checks.check_output(job, stdout, 1, {}, gauss_solve)
        assert problems == [], job.key


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="the benchmark's launcher needs a SOCK_SEQPACKET socketpair",
)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_one_child_pass_is_correct(workload, seed):
    # --seconds 0: the untimed warm-up, one pass over the jobs and the
    # setup runs, each output checked as in a timed run
    child = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--seconds", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert (child.returncode, child.stderr) == (0, "")
    *_, report, summary = child.stdout.splitlines()
    failures = json.loads(report)["failures"]
    summary = json.loads(summary)
    jobs = workloads.WORKLOADS[workload](seed)
    attempted = run.MIN_SETUP_SAMPLES + len(jobs)
    assert (summary["correct"], summary["failed"], summary["attempted"]) == (True, 0, attempted), failures
