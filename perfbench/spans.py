"""In-memory spans recorded around the benchmark's calls into each layer.

A :class:`Tracer` is created per run.  With tracing off every ``span``
is an empty context manager, so the untraced run pays only the
generator enter/exit.  With tracing on each span records its name,
start, end, parent, workload, design and pass; the tracer also sums
the time its own bookkeeping took, which is exactly the work the
traced run does and the untraced run does not.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records one span per call when ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool, workload: str) -> None:
        self.enabled = enabled
        self.workload = workload
        # [id, name, start, end, parent id, design, pass index]
        self.spans: list[list] = []
        self.pass_index = 0
        self.overhead_s = 0.0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, design: "str | None" = None):
        if not self.enabled:
            yield
            return
        entered = time.perf_counter()
        record = [
            len(self.spans),
            name,
            0.0,
            0.0,
            self._stack[-1] if self._stack else None,
            design,
            self.pass_index,
        ]
        self.spans.append(record)
        self._stack.append(record[0])
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
            self.overhead_s += (record[2] - entered) + (
                time.perf_counter() - record[3]
            )

    def self_times(self) -> "dict[int, dict[str, float]]":
        """Per pass, the summed self time of every span name.

        A span's self time is its duration minus the durations of its
        direct children (children never overlap: one thread).
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for sid, name, start, end, _, _, pass_index in self.spans:
            totals[pass_index][name] += end - start - child_time[sid]
        return totals

    def write(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        origin = min((s[2] for s in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {
                    "id": sid,
                    "parent": parent,
                    "workload": self.workload,
                    "design": design,
                    "pass": pass_index,
                },
            }
            for sid, name, start, end, parent, design, pass_index in (
                self.spans
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events}, indent=1) + "\n",
            encoding="utf-8",
        )
