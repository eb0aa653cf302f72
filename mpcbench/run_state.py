"""What one run accumulates: operation counts, failures, samples, guards."""

from __future__ import annotations

import contextlib
import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List

from mpcbench.spans import SpanRecorder


@dataclass
class RunState:
    workload: str
    seed: int
    seconds: float
    size: str
    root: str
    attempted: int = 0
    failed: int = 0
    #: False once a check failed or the exactness guard saw drift.
    correct: bool = True
    #: Sample count behind each printed metric.
    samples: Dict[str, int] = field(default_factory=dict)

    @property
    def run_id(self) -> str:
        return f"{self.workload}-seed{self.seed}-pid{os.getpid()}"

    def fail(self, why: str, wrong: bool = False) -> None:
        """Count one failed operation; ``wrong`` marks a wrong or missing answer."""
        self.failed += 1
        if wrong:
            self.correct = False
        print(f"FAILED: {why}", file=sys.stderr)

    def guard_equal(self, what: str, rows: List[Dict[str, Any]]) -> None:
        """Exactness guard: counts must repeat exactly, never be averaged."""
        if any(r != rows[0] for r in rows[1:]):
            self.correct = False
            print(f"BENCHMARK ERROR: {what} drifted between repetitions: {rows}", file=sys.stderr)

    def supervision(self, health: Dict[str, int]) -> None:
        """Exec supervision events (retries, rebuilds, fallbacks) are failures."""
        events = sum(health.values())
        self.attempted += events
        for _ in range(events):
            self.fail(f"exec supervision event: {health}")

    @contextlib.contextmanager
    def capture_warnings(self) -> Iterator[None]:
        """Count every RuntimeWarning (e.g. an inline fallback) as a failure."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            yield
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                self.attempted += 1
                self.fail(f"RuntimeWarning: {w.message}")

    def trace_path(self) -> str:
        return os.path.join(
            self.root, "mpcbench", "out", f"trace-{self.workload}-seed{self.seed}.jsonl"
        )

    def write_trace(
        self,
        rec: SpanRecorder,
        program_spans: List[Dict[str, Any]],
        layers: Dict[str, float],
        shares: Dict[str, float],
    ) -> None:
        path = self.trace_path()
        rec.write(path, program_spans, {"per_layer": layers, "layer_shares": shares})
        print(f"spans: {len(rec.spans)} benchmark + {len(program_spans)} program -> {path}")
        print("layer shares of the traced end-to-end time:")
        for k, v in shares.items():
            print(f"  {k:32s} {v:7.1%}")
