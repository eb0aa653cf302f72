"""In-memory spans recorded by the benchmark around calls into the library.

A span has a name, start, end, parent and run id.  Parents follow a
``contextvars.ContextVar``, so spans opened in asyncio tasks and in
``asyncio.to_thread`` callees (which copy the context) nest under the span
that was current when the task or thread call was created.  Spans stay in
memory and are written out once, when the run ends.

Untraced runs use :data:`NULL`, whose ``span()`` is a shared no-op context
manager, so the measured runs pay one attribute lookup per boundary.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional

_NOOP = contextlib.nullcontext()


class NullRecorder:
    """The recorder of untraced runs: records nothing."""

    def span(self, name: str, **attrs: Any) -> contextlib.AbstractContextManager:
        return _NOOP


NULL = NullRecorder()


class SpanRecorder:
    """Records nested spans of one run; see the module docstring."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            f"mpcbench-span-{run_id}", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                {
                    "run": self.run_id,
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "attrs": attrs,
                }
            )

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the part of its interval that
        its children cover (overlapping children are merged first).
        """
        children: Dict[Optional[int], List[Dict[str, Any]]] = defaultdict(list)
        for s in self.spans:
            children[s["parent"]].append(s)
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = out[s["name"]]
            row["count"] += 1
            row["inclusive_s"] += s["end"] - s["start"]
            row["self_s"] += s["end"] - s["start"] - covered
        return dict(out)

    def write(
        self, path: str, program_spans: List[Dict[str, Any]], summary: Dict[str, Any]
    ) -> None:
        """Write every span, the program's own spans and a summary as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps({"type": "span", "source": "mpcbench", **s}) + "\n")
            for s in program_spans:
                fh.write(
                    json.dumps({"type": "span", "source": "repro.obs", "run": self.run_id, **s})
                    + "\n"
                )
            row = {"type": "summary", "run": self.run_id, "self_times": self.self_times()}
            fh.write(json.dumps({**row, **summary}) + "\n")
