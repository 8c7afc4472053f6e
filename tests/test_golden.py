"""Every invocation of the golden grid against its pinned outcome.

The grid, and the script that re-pins it, are in ``golden/pin_digests.py``.
"""

import json
import sys

from contact_kirby.cli import main
from golden.pin_digests import DIGESTS_PATH, invocations, key, outcome

PINNED = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


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
