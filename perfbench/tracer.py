"""In-memory span recorder wrapped around the public calls into each layer.

A span is (name, start_ns, end_ns, parent index).  Spans are kept in a list
while the process runs and written out once at the end.  Nothing under
``src/`` is edited: the wrappers replace module attributes in this process
only, at the call sites the package itself uses (for example
``blowup_lab.search.score_benchmark`` inside ``hill_climb``).
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep: str | None = None):
        """Return fn wrapped in a span.  keep="arg" keeps the first argument
        and keep="result" the return value, for counting after the pass."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        kept = self.kept[name]

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep == "arg":
                kept.append(args[0])
            elif keep == "result":
                kept.append(result)
            return result

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap the package's public layer entry points where they are called."""
        from blowup_lab import features, harness, rankers, search

        harness.run_trajectory = self.wrap(
            "simulator.run_trajectory", harness.run_trajectory, keep="result")
        harness.extract_features = self.wrap(
            "features.extract_features", harness.extract_features, keep="arg")
        features.hilbert_samuel_base = self.wrap(
            "features.hilbert_samuel_base", features.hilbert_samuel_base, keep="arg")
        rankers.Ranker.__call__ = self.wrap("rankers.Ranker.__call__", rankers.Ranker.__call__)
        harness.audit_trajectory = self.wrap(
            "harness.audit_trajectory", harness.audit_trajectory, keep="result")
        harness.check_determinism = self.wrap(
            "harness.check_determinism", harness.check_determinism, keep="result")
        search.score_benchmark = self.wrap("harness.score_benchmark", search.score_benchmark)

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, lo: int, hi: int) -> dict[str, float]:
        """Seconds of self time per span name over spans[lo:hi]: duration
        minus the part covered by child spans."""
        spans = self.spans
        own = [s[2] - s[1] for s in spans]
        for i in range(lo, hi):
            parent = spans[i][3]
            if parent >= 0:
                own[parent] -= spans[i][2] - spans[i][1]
        totals: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            totals[spans[i][0]] += own[i] / 1e9
        return totals

    def durations(self, name: str, lo: int, hi: int) -> list[float]:
        return [(s[2] - s[1]) / 1e9 for s in self.spans[lo:hi] if s[0] == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, start, end, parent])
