"""In-process traced run: spans around each module's public functions.

The tracer rebinds, for the duration of one traced pass, every name in the
loaded ``contact_kirby`` modules that refers to a traced function (for
example ``transform.invert``, ``cli.det`` and
``kirby.invariants_after_surgery``), and puts the originals back after.
Spans live in flat in-memory arrays and are written out once at the end.
Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, function); cli.main is the root span of a request.
TRACED = {
    "exact.invert": ("contact_kirby.exact", "invert"),
    "exact.det": ("contact_kirby.exact", "det"),
    "exact.apply": ("contact_kirby.exact", "apply"),
    "exact.inner": ("contact_kirby.exact", "inner"),
    "presentation.enumerate": ("contact_kirby.presentation", "enumerate_presentations"),
    "presentation.convert": ("contact_kirby.presentation", "convert"),
    "presentation.linking_matrix": ("contact_kirby.presentation", "linking_matrix"),
    "legendrian.stabilize": ("contact_kirby.legendrian", "stabilize"),
    "transform.invariants": ("contact_kirby.transform", "invariants_after_surgery"),
    "transform.bennequin": ("contact_kirby.transform", "bennequin"),
    "kirby.classify": ("contact_kirby.kirby", "classify"),
    "kirby.gate": ("contact_kirby.kirby", "gate"),
    "cli.canonical_json": ("contact_kirby.cli", "canonical_json"),
}
ROOT_SPAN = "cli.main"
SPAN_NAMES = (ROOT_SPAN,) + tuple(TRACED)

# Size argument recorded with the span: the matrix order or vector length.
_SIZED = {
    "exact.invert": lambda args: args[0].n,
    "exact.det": lambda args: args[0].n,
    "exact.apply": lambda args: len(args[1]),
    "exact.inner": lambda args: len(args[0]),
}
# Results kept until the request ends, for the presentation and kirby counters.
_KEEP_RESULT = ("presentation.enumerate", "kirby.classify")


def elimination_ops(name: str, n: int) -> int:
    """Inner-loop updates the dense algorithms perform on an order-n input.

    Computed from the loop bounds of ``exact``, not measured: Bareiss over
    n columns for ``det``, over ``[M | I]`` plus back-substitution for
    ``invert``, n^2 and n multiply-adds for ``apply`` and ``inner``.
    """
    squares = (n - 1) * n * (2 * n - 1) // 6
    if name == "exact.det":
        return squares
    if name == "exact.invert":
        return squares + n * n * (n - 1) // 2 + n * (n * (n - 1) // 2 + n * n)
    if name == "exact.apply":
        return n * n
    if name == "exact.inner":
        return n
    return 0


class Tracer:
    """Records spans (name, start, end, parent, request, size) in flat arrays."""

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request = array("l")
        self.size = array("l")
        self.results = []
        self._stack = [-1]
        self.request_id = 0

    def clear(self) -> None:
        for column in (self.name, self.start, self.end, self.parent, self.request, self.size):
            del column[:]
        self.results.clear()

    def wrap(self, span_name: str, fn):
        code = SPAN_NAMES.index(span_name)
        size_of = _SIZED.get(span_name)
        keep = span_name in _KEEP_RESULT
        stack, clock = self._stack, time.perf_counter
        names, starts, ends = self.name, self.start, self.end
        parents, requests, sizes = self.parent, self.request, self.size

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(code)
            parents.append(stack[-1])
            requests.append(self.request_id)
            sizes.append(size_of(args) if size_of else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[span] = t0
                ends[span] = t1
            if keep:
                self.results.append((span_name, result))
            return result

        return traced

    def install(self) -> list:
        """Rebind every reference to a traced function; return what to restore."""
        modules = [
            m for name, m in sys.modules.items()
            if name == "contact_kirby" or name.startswith("contact_kirby.")
        ]
        restore = []
        for span_name, (module, function) in TRACED.items():
            original = getattr(sys.modules[module], function)
            wrapper = self.wrap(span_name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        restore.append((m, attr, original))
        return restore

    @staticmethod
    def uninstall(restore) -> None:
        for m, attr, original in restore:
            setattr(m, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then the raw column arrays."""
        columns = ("name", "start", "end", "parent", "request", "size")
        header = {
            "span_names": list(SPAN_NAMES),
            "count": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(handle)


def self_times(names, starts, ends, parents) -> dict:
    """Per span name: (calls, total self time).

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    totals = {}
    for i, code in enumerate(names):
        calls, self_s = totals.get(code, (0, 0.0))
        totals[code] = (calls + 1, self_s + ends[i] - starts[i] - child[i])
    return totals
