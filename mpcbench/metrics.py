"""Metric names, units and the small statistics helpers the workloads share.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names and
units a run prints; ``BENCHMARK.json`` lists the same names (the self-test
checks that they agree).
"""

from __future__ import annotations

import os
import resource
from typing import Any, Dict, List, Sequence

import numpy as np

#: name -> unit of every end-to-end metric (printed by ``--trace 0`` runs).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "solve_s": "s",
    "updates_per_s": "1/s",
    "update_p50_ms": "ms",
    "update_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "rounds": "count",
    "words": "count",
    "peak_rss_mb": "MB",
}

#: Problems of the batch suites, by short name (``dp.solve_s.<name>``).
BATCH_PROBLEMS = (
    "mwis",
    "mwvc",
    "mwds",
    "mwm",
    "mis",
    "coloring3",
    "count_matchings",
    "longest_path",
)

#: name -> unit of every per-layer metric (printed by ``--trace 1`` runs).
PER_LAYER: Dict[str, str] = {
    "representations.busy_s": "s",
    "representations.rounds": "count",
    "clustering.degree_reduction_s": "s",
    "clustering.build_s": "s",
    "clustering.rounds": "count",
    "clustering.layers": "count",
    "clustering.clusters": "count",
    **{f"dp.solve_s.{p}": "s" for p in BATCH_PROBLEMS},
    "dp.plan_s": "s",
    "dp.bottom_up_s": "s",
    "dp.top_down_s": "s",
    "dp.rounds": "count",
    "dp.words": "count",
    "dp.kernel_hit_ratio": "ratio",
    "incremental.initial_solve_s": "s",
    "exec.call_s": "s",
    "exec.worker_s": "s",
    "exec.transport_s": "s",
    "exec.treeops_s": "s",
    "exec.worker_peak_rss_mb": "MB",
    "exec.retries": "count",
    "exec.rebuilds": "count",
    "exec.inline_fallbacks": "count",
    "incremental.apply_ms_p50": "ms",
    "incremental.apply_ms_p99": "ms",
    "incremental.publish_ms_p50": "ms",
    "incremental.publish_ms_p99": "ms",
    "incremental.clusters_resolved": "count",
    "incremental.clusters_relabeled": "count",
    "incremental.prune_ratio": "ratio",
    "incremental.full_resolves": "count",
    "incremental.rounds": "count",
    "incremental.words": "count",
    "serving.batches": "count",
    "serving.batch_updates_mean": "count",
    "serving.overhead_ms_p50": "ms",
    "loadgen.read_late_p99_ms": "ms",
    "obs.trace_overhead_pct": "%",
}


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``seconds``, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=float), q)) * 1000.0


def driver_peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pids: List[int]) -> float:
    """Sum of the peak resident memory (``VmHWM``) of live processes."""
    total = 0.0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
                    break
    return total


def process_alive(pid: int) -> bool:
    return os.path.exists(f"/proc/{pid}")


def kernel_hit_ratio(metrics_json: Any) -> float:
    """Dense-kernel cache hits / (hits + misses), trace memo and rule caches
    of every problem together; 0 when no kernel ran in this process."""
    hits = misses = 0.0
    for g in (metrics_json or {}).get("gauges", []):
        if g["name"] == "repro_kernel_cache":
            stat = g["labels"].get("stat", "")
            if stat.endswith("_hits"):
                hits += g["value"]
            elif stat.endswith("_misses"):
                misses += g["value"]
    return hits / (hits + misses) if hits + misses else 0.0


def exec_split(metrics_json: Any) -> Dict[str, float]:
    """Driver-observed DP call time, slowest worker slot, and treeops op time."""
    call = treeops = 0.0
    per_slot: Dict[str, float] = {}
    for h in (metrics_json or {}).get("histograms", []):
        cmd = h["labels"].get("cmd")
        if h["name"] == "repro_exec_call_seconds":
            if cmd == "op":
                treeops += h["sum"]
            else:
                call += h["sum"]
        elif h["name"] == "repro_exec_worker_seconds" and cmd != "op":
            slot = str(h["labels"].get("slot"))
            per_slot[slot] = per_slot.get(slot, 0.0) + h["sum"]
    worker = max(per_slot.values(), default=0.0)
    return {
        "exec.call_s": call,
        "exec.worker_s": worker,
        "exec.transport_s": call - worker,
        "exec.treeops_s": treeops,
    }
