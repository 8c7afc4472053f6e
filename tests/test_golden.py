"""Every invocation of the golden grid against its pinned outcome.

The grid, and the script that re-pins it, are in ``golden/pin_digests.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contact_kirby.cli import main
from golden.pin_digests import DIGESTS_PATH, invocations, key, outcome

PINNED = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
SRC = Path(__file__).resolve().parents[1] / "src"

# keys of the grid run as the console script runs them: exit 0, 2 and 3 in
# both formats, the 2^16-branch convert (about 28.7 MB of JSON), the
# screen, a classify and an analyze of a document of inputs/, each in both
# formats, an expand and the refusal of a 129-component coefficient
CHILD_SAMPLE = [
    "convert --tb -2 --rot 1 --coeff -7/3 --format json",
    "convert --tb -2 --rot 1 --coeff -7/3 --format table",
    "expand x --format json",
    "expand x --format table",
    "analyze --tb -1 --rot 0 --coeff -1 --lk -1 --format json",
    "analyze --tb -1 --rot 0 --coeff -1 --lk -1 --format table",
    "convert --tb -1 --rot 0 --coeff -17 --format json",
    "table --m-max 6 --format json",
    "table --m-max 6 --format table",
    "classify --m 3 --n 4 --format json",
    "classify --m 3 --n 4 --format table",
    "expand -82/125 --format table",
    "analyze --input inputs/signed.json --lk 1 --format json",
    "analyze --input inputs/signed.json --lk 1 --format table",
    "convert --tb -1 --rot 0 --coeff 1/129 --format json",
]


def test_the_grid_is_the_pinned_grid():
    assert sorted(key(argv) for argv in invocations()) == sorted(PINNED)


def test_every_invocation_has_its_pinned_outcome():
    # an --input path's error text is the platform's (strerror)
    changed = [
        key(argv)
        for argv in invocations()
        if (sys.platform == "linux" or "--input" not in argv)
        and outcome(main, argv) != PINNED[key(argv)]
    ]
    assert changed == []


# entry() flushes and ends the process itself, so a child's bytes and
# exit code must still be the ones main gives in-process: buffered, where
# the last bytes wait for that flush; under -u, where stdout writes through
# unless entry sets it to buffer; and with warnings as errors, where a
# warning would end in a traceback and exit 1
@pytest.mark.parametrize(
    "flags", [(), ("-u",), ("-W", "error")], ids=["buffered", "unbuffered", "warnings-as-errors"]
)
def test_the_console_script_writes_the_pinned_bytes(flags):
    argvs = {key(argv): argv for argv in invocations()}
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    changed = []
    for name in CHILD_SAMPLE:
        child = subprocess.run(
            [sys.executable, *flags, "-c", "from contact_kirby.cli import entry; entry()", *argvs[name]],
            capture_output=True, env=env, timeout=120,
        )
        got = [child.returncode] + [hashlib.sha256(s).hexdigest() for s in (child.stdout, child.stderr)]
        if got != PINNED[name]:
            changed.append(name)
    assert changed == []
