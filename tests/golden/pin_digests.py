"""Pin the outcome of every invocation of the CLI's golden grid.

Run from the root of a checkout when the CLI's output is meant to change:

    PYTHONPATH=src python3 tests/golden/pin_digests.py

For each invocation, run in-process through ``cli.main``, ``digests.json``
records the exit code and the sha256 of stdout and of stderr.  A change
that alters output on purpose re-pins and lists every changed key.  The
grid leaves out ``--help`` and argparse's own errors, whose text depends
on the Python version.  Its ``--input`` cases read the documents in
``inputs/``, keyed by file name, none of whose outcomes writes the path,
or name fixed paths that do not exist.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
INPUTS = Path(__file__).with_name("inputs")

KNOTS = [(-1, 0), (-2, 1), (-2, -1), (-3, 0), (-3, 2), (-4, -3), (-5, 2)]
COEFFICIENTS = [
    "1", "-1", "2", "-2", "3", "-3", "-5", "0", "1/2", "-1/2",
    "3/2", "-3/2", "1/3", "5/3", "-7/3", "7/3", "11/4", "-9/4", "-13/5", "31/10",
]
LKS = ["-3", "-1", "0", "1", "4"]
# external unknots other than the default (tb -1, rot 0); the last is not one
EXTERNAL = [("-2", "1"), ("-3", "-2"), ("-4", "1"), ("-2", "0")]
SIGNS = ["", "+", "-", "+-", "-+", "--+"]
# 2^16 branches, 2^39 (refused), 128 components and 129 (refused)
CAPS = ["-17", "-40", "1/128", "1/129"]
# the dense solve at the 128-component cap: a chain, and (+1) components whose
# zero diagonal makes the first pivot 0, so the elimination swaps rows
DENSE_CAPS = [("-129/128", "257"), ("1/128", "127")]
EXPANSIONS = ["-1", "-2", "-3/2", "-7/3", "-82/125", "-1/0", "0", "1", "1/2", "1.5", "x"]
# paths that do not exist: short, one under PATH_MAX (4096), at it and past it;
# a message writes the last two as their first 4096 characters and their length
INPUT_PATHS = [
    "/nonexistent.json",
    "/nonexistent" + "/x" * 2041 + "x",
    "/nonexistent" + "/x" * 2042,
    "/nonexistent" + "/x" * 2042 + "x",
    "/nonexistent" + "/x" * 2494,
]


def invocations() -> list:
    """Every argv of the grid, each in both formats."""
    grid = []
    for tb, rot in KNOTS:
        knot = ["--tb", str(tb), "--rot", str(rot)]
        for coefficient in COEFFICIENTS:
            diagram = knot + ["--coeff", coefficient]
            grid.append(["convert"] + diagram)
            grid.extend(["analyze"] + diagram + ["--lk", lk] for lk in LKS)
        for coefficient in ("-3", "-7/3", "3/2", "-13/5"):
            for signs in SIGNS:
                diagram = knot + ["--coeff", coefficient, f"--signs={signs}"]
                grid.append(["convert"] + diagram)
                grid.append(["analyze"] + diagram + ["--lk", "1"])
    for tb, rot in KNOTS[:3]:
        for coefficient in ("-1", "1/2", "3", "-7/3"):
            diagram = ["--tb", str(tb), "--rot", str(rot), "--coeff", coefficient]
            for ext_tb, ext_rot in EXTERNAL:
                external = ["--ext-tb", ext_tb, "--ext-rot", ext_rot]
                grid.extend(["analyze"] + diagram + ["--lk", lk] + external for lk in ("1", "3"))
    for m in range(14):
        for n in range(m - 3, m + 4):
            grid.append(["classify", "--m", str(m), "--n", str(n)])
            grid.extend(
                ["classify", "--m", str(m), "--n", str(n), "--rot", str(rot)]
                for rot in range(1 - m, m, 2)
            )
    grid.append(["classify", "--m", "1001", "--n", "1002"])
    grid.extend(["table", "--m-max", str(m)] for m in (-1, 0, 1, 3, 6, 1001))
    grid.extend(["expand", coefficient] for coefficient in EXPANSIONS)
    for coefficient in CAPS:
        grid.append(["convert", "--tb", "-1", "--rot", "0", "--coeff", coefficient])
        grid.append(["expand", coefficient])
    for coefficient, lk in DENSE_CAPS:
        grid.append(["analyze", "--tb", "-1", "--rot", "0", "--coeff", coefficient, "--lk", lk])
    grid.extend(["convert", "--input", path] for path in INPUT_PATHS)
    for path in sorted(map(str, INPUTS.glob("*.json"))):
        grid.append(["convert", "--input", path])
        grid.append(["analyze", "--input", path, "--lk", "1"])
    # a diagram given in part, and --input beside a diagram flag
    rational = str(INPUTS / "rational.json")
    grid.extend([
        ["convert", "--tb", "-1", "--rot", "0"],
        ["convert", "--coeff", "2"],
        ["analyze", "--tb", "-1", "--coeff", "2", "--lk", "1"],
        ["convert", "--input", rational, "--tb", "-1"],
        ["analyze", "--input", rational, "--lk", "1", "--signs=+"],
    ])
    return [argv + ["--format", fmt] for argv in grid for fmt in ("json", "table")]


def key(argv) -> str:
    """The invocation as one line, the same in every checkout.

    A document of ``inputs/`` is written by its file name, any other
    argument over 64 characters by its length.
    """
    return " ".join(
        "inputs/" + Path(a).name if Path(a).parent == INPUTS
        else a if len(a) <= 64 else f"<{len(a)} characters>"
        for a in argv
    )


def outcome(main, argv) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]


def main() -> int:
    from contact_kirby import cli

    digests = {key(argv): outcome(cli.main, argv) for argv in invocations()}
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(digests.items()))
    DIGESTS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(digests)} invocations pinned in {DIGESTS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
