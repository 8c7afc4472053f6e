"""Pin the stdout digest of every default-seed job in ``digests.json``.

Run from the root of a checkout when the CLI's output is meant to change:

    python3 perfbench/pin_digests.py

Each output must pass the full check before its digest is written.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    gauss_solve = run.use_checkout_sources()
    digests, failed = {}, False
    jobs = [job for make_jobs in workloads.WORKLOADS.values() for job in make_jobs(run.DEFAULT_SEED)]
    with run.Launcher() as launcher:
        outputs = [launcher.run(job.argv)[:2] for job in jobs]
    for job, (code, stdout) in zip(jobs, outputs):
        problems, _ = checks.check_output(job, stdout, run.DEFAULT_SEED, {}, gauss_solve)
        if code != 0 or problems:
            print(f"{job.key}: exit {code}; {problems}", file=sys.stderr)
            failed = True
        digests[job.key] = checks.sha256(stdout)
    if failed:
        return 1
    checks.DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
