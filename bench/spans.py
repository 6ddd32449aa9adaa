"""In-memory span recording for the benchmark's traced runs.

A span is (id, name, parent id, op id, start ns, end ns).  Spans are kept in a
list while the run measures and written out as JSON lines when it ends, so no
file I/O lands inside a timed region.  Untraced runs use ``NullTracer``, whose
spans are one shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NO_SPAN = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context manager."""

    enabled = False

    def span(self, name: str, op):
        return _NO_SPAN


class Tracer:
    """Records nested spans; the innermost open span is the parent of a new one."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [sid, name, parent, op, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._open.pop()

    def self_ns_by_op(self) -> dict:
        """op id -> {span name: summed self time in ns}.

        A span's self time is its duration minus the durations of its direct
        children, which lie inside it because spans nest.
        """
        child_ns = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(int))
        for sid, name, _, op, start, end in self.spans:
            out[op][name] += end - start - child_ns[sid]
        return out

    def write(self, path: Path) -> None:
        keys = ("id", "name", "parent", "op", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(dict(zip(keys, record))) + "\n")
