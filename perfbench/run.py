"""Benchmark of the ``contact-kirby`` CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload table|branches|convert \
        --seed N --seconds S --trace 0|1

``--trace 0`` runs the workload's job list as child processes, one at a
time, in a closed loop with a single client, until ``--seconds`` have
passed, and reports the end-to-end metrics.  ``--trace 1`` runs the same
jobs in-process through ``cli.main`` with spans around each module's
public functions, and reports the per-layer metrics.  Every output is
checked (see ``checks.py``).  The next-to-last stdout line is the full
report (context, sample counts, failures); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
LAUNCHER = Path(__file__).resolve().with_name("launcher.py")
SPANS_DIR = Path(__file__).resolve().parent / "out"
DEFAULT_SEED = 0
MIN_SETUP_SAMPLES = 5
MIN_TRACED_ROUNDS = 2
CHILD_ENTRY = (
    "import sys; from contact_kirby.cli import entry; "
    "sys.argv[0] = 'contact-kirby'; entry()"
)

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "throughput_branches_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

# Per-layer metrics: calls and self time of every traced function, then the
# counters.  cli.main is the root span; only its self time is reported.
PER_LAYER = {
    f"{span}.{kind}": unit
    for span in tracing.TRACED
    for kind, unit in (("calls", "count"), ("self_s", "s"))
}
PER_LAYER.update({
    "exact.ops_computed": "ops",
    "exact.eliminations_per_branch": "ratio",
    "presentation.branches": "count",
    "presentation.classes": "count",
    "presentation.class_ratio": "ratio",
    "presentation.max_components": "count",
    "kirby.survivors": "count",
    "cli.main.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
})


class Run:
    """Counts attempts and failures; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(self.attempted, 1),
            "failures": self.failures[:20],
        }


def context() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "clients": "one client, closed loop, one child process at a time",
        "rss": "ru_maxrss of each child, read from os.wait4 by launcher.py",
        "scope": "timings and rusage cover only this benchmark's own processes",
    }


class Launcher:
    """Spawns CLI children through ``launcher.py`` (see there for why).

    Use as a context manager; leaving it stops the launcher and waits for it.
    """

    def __enter__(self):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-S", str(LAUNCHER), str(theirs.fileno())],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                pass_fds=[theirs.fileno()],
            )
        return self

    def __exit__(self, *exc_info):
        self.sock.close()
        self.proc.wait()

    def run(self, argv) -> tuple:
        """Run the CLI once; return (exit code, stdout, wall s, cpu s, maxrss KiB).

        Wall time runs from the spawn request until exit with stdout fully read.
        """
        command = (sys.executable, "-c", CHILD_ENTRY, *argv)
        read_end, write_end = os.pipe()
        start = time.perf_counter()
        try:
            socket.send_fds(self.sock, [b"\0".join(a.encode() for a in command)], [write_end])
        finally:
            os.close(write_end)
        with open(read_end, "rb") as pipe:
            stdout = pipe.read()
        reply = self.sock.recv(256)
        wall = time.perf_counter() - start
        if not reply:
            raise RuntimeError("the launcher exited")
        code, cpu, maxrss = reply.split()
        return int(code), stdout, wall, float(cpu), int(maxrss)


class Verifier:
    """Checks each job's first output in full, and later ones against it."""

    def __init__(self, seed: int, solve):
        self.seed = seed
        self.solve = solve
        self.digests = checks.load_digests()
        self.first = {}  # job key -> (digest, problems, branches)

    def __call__(self, job, code: int, stdout: bytes) -> tuple:
        if code != 0:
            return [f"exit code {code}"], 0
        digest = checks.sha256(stdout)
        if job.key not in self.first:
            problems, branches = checks.check_output(
                job, stdout, self.seed, self.digests, self.solve
            )
            self.first[job.key] = (digest, problems, branches)
            return problems, branches
        first_digest, problems, branches = self.first[job.key]
        if digest != first_digest:
            return ["stdout differs from the first rep"], 0
        return problems, branches


def metric(value, unit: str, samples: int, **details) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **details}


def tail(values) -> dict:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 20:
        return {}
    pct = int(100 * (n - 10) / n)
    return {f"p{pct}": statistics.quantiles(values, n=100)[pct - 1]}


def timed_run(jobs, seconds: float, run: Run, verify: Verifier, spawn) -> dict:
    """Closed-loop passes over the jobs; returns the end-to-end metrics.

    A timing metric takes each job's fastest rep.  The machine is shared:
    other tenants slow a whole rep by up to about 50%, in episodes lasting
    from milliseconds to minutes, and never make one faster, so the fastest
    rep varies least between runs.  The report keeps the medians as well.
    """
    spawn(workloads.SETUP_ARGV)  # warm the bytecode cache, untimed
    setup, rss, pass_throughput = [], [], []
    wall = {job.key: [] for job in jobs}
    cpu = {job.key: [] for job in jobs}
    branches = {}
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(setup) < MIN_SETUP_SAMPLES:
        code, stdout, took, _, maxrss = spawn(workloads.SETUP_ARGV)
        ok = code == 0 and stdout == workloads.SETUP_STDOUT
        run.record("setup", [] if ok else ["expand -2 printed the wrong answer"])
        setup.append(took)
        rss.append(maxrss)
        if pass_throughput and time.perf_counter() >= deadline:
            continue
        for job in jobs:
            code, stdout, took, cpu_s, maxrss = spawn(job.argv)
            problems, branches[job.key] = verify(job, code, stdout)
            run.record(job.key, problems)
            wall[job.key].append(took)
            cpu[job.key].append(cpu_s)
            rss.append(maxrss)
        pass_throughput.append(
            sum(branches.values()) / sum(w[-1] for w in wall.values())
        )
    fastest = {key: min(w) for key, w in wall.items()}
    walls = [w for per_job in wall.values() for w in per_job]
    reps = len(pass_throughput)
    return {
        "job_s": metric(
            statistics.mean(fastest.values()), "s", len(walls),
            median=statistics.median(walls), **tail(walls),
            by_job={key: {"fastest": fastest[key], "median": statistics.median(w)} for key, w in wall.items()},
        ),
        "job_cpu_s": metric(
            statistics.mean(min(c) for c in cpu.values()), "s", len(walls),
            median=statistics.median(c for per_job in cpu.values() for c in per_job),
        ),
        "throughput_branches_per_s": metric(
            sum(branches.values()) / sum(fastest.values()), "1/s", reps,
            median=statistics.median(pass_throughput),
        ),
        "peak_rss_mib": metric(max(rss) / 1024, "MiB", len(rss)),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
    }


def in_process(main, argv) -> tuple:
    """Call ``main(argv)`` with stdout captured; return (code, stdout, wall s)."""
    buffer = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = main(list(argv))
        wall = time.perf_counter() - start
    return code, buffer.getvalue().encode("utf-8"), wall


def add_request_counters(counts: dict, results) -> None:
    """Add the counters read off the results the traced functions returned."""
    for span_name, result in results:
        if span_name == "kirby.classify":
            counts["survivors"] += sum(
                v.status == checks.CONSISTENT for v in result.verdicts
            )
            continue
        counts["branches"] += len(result)
        counts["classes"] += len(
            {tuple((c.knot.tb, c.knot.rot) for c in p.components) for p in result}
        )
        counts["max_components"] = max(
            [counts["max_components"]] + [len(p.components) for p in result]
        )


def traced_round(jobs, tracer: tracing.Tracer, traced_main) -> tuple:
    """One traced pass; return ((code, digest) per job, wall, counts, self times)."""
    tracer.clear()
    outputs, wall, stdout_bytes = [], 0.0, 0
    counts = {"branches": 0, "classes": 0, "max_components": 0, "survivors": 0}
    restore = tracer.install()
    try:
        for request, job in enumerate(jobs):
            tracer.request_id = request
            code, stdout, seconds = in_process(traced_main, job.argv)
            outputs.append((code, checks.sha256(stdout)))
            stdout_bytes += len(stdout)
            wall += seconds
            add_request_counters(counts, tracer.results)
            tracer.results.clear()
    finally:
        tracer.uninstall(restore)
    per_span = tracing.self_times(tracer.name, tracer.start, tracer.end, tracer.parent)
    calls = {tracing.SPAN_NAMES[c]: n for c, (n, _) in per_span.items()}
    self_s = {tracing.SPAN_NAMES[c]: s for c, (_, s) in per_span.items()}
    ops = sum(
        tracing.elimination_ops(tracing.SPAN_NAMES[code], size)
        for code, size in zip(tracer.name, tracer.size)
    )
    counts["ops_computed"] = ops
    counts["stdout_bytes"] = stdout_bytes
    for span in tracing.TRACED:
        counts[f"{span}.calls"] = calls.get(span, 0)
    return outputs, wall, counts, self_s


def traced_run(jobs, seconds: float, run: Run, verify: Verifier, spawn, workload: str) -> dict:
    """Untraced and traced in-process rounds; returns the per-layer metrics."""
    from contact_kirby import cli

    tracer = tracing.Tracer()
    traced_main = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    reference = []
    for job in jobs:
        code, stdout, *_ = spawn(job.argv)
        run.record(f"child {job.key}", verify(job, code, stdout)[0])
        reference.append((code, checks.sha256(stdout)))
    ratios, self_samples, first_counts = [], [], None
    deadline = time.perf_counter() + seconds
    while len(ratios) < MIN_TRACED_ROUNDS or time.perf_counter() < deadline:
        # alternate which pass goes first, so neither gets a warmer process
        traced_first = len(ratios) % 2 == 1
        if traced_first:
            outputs, traced_wall, counts, self_s = traced_round(jobs, tracer, traced_main)
        plain = []
        for job in jobs:
            code, stdout, wall = in_process(cli.main, job.argv)
            plain.append((code, checks.sha256(stdout), wall))
        if not traced_first:
            outputs, traced_wall, counts, self_s = traced_round(jobs, tracer, traced_main)
        first_counts = first_counts or counts
        for job, want, got_plain, got_traced in zip(jobs, reference, plain, outputs):
            run.record(f"untraced {job.key}", [] if got_plain[:2] == want else ["differs from the child's stdout"])
            run.record(f"traced {job.key}", [] if got_traced == want else ["differs from the child's stdout"])
        run.record("counts", [] if counts == first_counts else ["counts differ between traced rounds"])
        ratios.append(traced_wall / sum(wall for _, _, wall in plain))
        self_samples.append(self_s)
    tracer.write(SPANS_DIR / f"spans-{workload}.bin")

    rounds = len(ratios)
    counts = first_counts
    out = {}
    for span in tracing.TRACED:
        out[f"{span}.calls"] = metric(counts[f"{span}.calls"], "count", rounds)
        out[f"{span}.self_s"] = metric(
            statistics.median(s.get(span, 0.0) for s in self_samples), "s", rounds
        )
    branches = counts["branches"]
    eliminations = counts["exact.det.calls"] + counts["exact.invert.calls"]
    out.update({
        "exact.ops_computed": metric(counts["ops_computed"], "ops", rounds),
        "exact.eliminations_per_branch": metric(eliminations / branches, "ratio", rounds),
        "presentation.branches": metric(branches, "count", rounds),
        "presentation.classes": metric(counts["classes"], "count", rounds),
        "presentation.class_ratio": metric(counts["classes"] / branches, "ratio", rounds),
        "presentation.max_components": metric(counts["max_components"], "count", rounds),
        "kirby.survivors": metric(counts["survivors"], "count", rounds),
        "cli.main.self_s": metric(
            statistics.median(s[tracing.ROOT_SPAN] for s in self_samples), "s", rounds
        ),
        "cli.stdout_bytes": metric(counts["stdout_bytes"], "bytes", rounds),
        "trace.overhead_ratio": metric(statistics.median(ratios), "ratio", rounds),
    })
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def use_checkout_sources():
    """Import the package and the test oracles from this checkout.

    Returns ``gauss_solve``; raises ``RuntimeError`` when the checkout has
    no sources, so the benchmark fails instead of measuring something else.
    """
    if not (SRC / "contact_kirby" / "cli.py").is_file() or not ORACLES.is_file():
        raise RuntimeError(f"no contact_kirby sources or test oracles under {ROOT}")
    for path in (str(ORACLES.parent), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import contact_kirby
    from oracles import gauss_solve

    if not Path(contact_kirby.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"contact_kirby imported from {contact_kirby.__file__}")
    return gauss_solve


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        gauss_solve = use_checkout_sources()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    run = Run()
    verify = Verifier(args.seed, gauss_solve)
    with Launcher() as launcher:
        if args.trace:
            metrics = traced_run(jobs, args.seconds, run, verify, launcher.run, args.workload)
            names = PER_LAYER
        else:
            metrics = timed_run(jobs, args.seconds, run, verify, launcher.run)
            names = END_TO_END
    summary = run.summary()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [job.key for job in jobs],
        "context": context(),
        "metrics": metrics,
        **summary,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"], "unit": unit}
            for name, unit in names.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
