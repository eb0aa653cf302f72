"""batch-shallow and batch-deep: ``prepare()`` once, then a problem suite.

One *cycle* is a fresh deployment (for batch-shallow that includes starting
the process pool), ``prepare()`` and the suite's ``solve_on`` calls on the
one prepared tree.  An untraced run makes ``--seconds / SECONDS_PER_CYCLE``
cycles (at least one; two on batch-deep, whose single suite is the
noisiest), adds setup-only cycles until three setups were timed, and
reports medians.  Every cycle must charge the same rounds and
words and build the same clustering (the exactness guard).

These workloads carry no write or read traffic, but every run prints every
end-to-end metric, so the serving metrics are computed over the suite, the
batch counterpart of a serve-rw update batch: each problem of the suite is
one "update", acknowledged when the whole suite has finished (its latency is
the suite's wall time), and each problem's answer is one "read", waited for
from the start of the suite until that answer exists.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.pipeline import PipelineResult, PreparedTree, prepare, solve_on
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.problems.counting_matchings import CountMatchingsModK, sequential_count_matchings
from repro.problems.longest_path import LongestPath, sequential_longest_path
from repro.problems.max_weight_independent_set import (
    MaxWeightIndependentSet,
    sequential_max_weight_independent_set,
)
from repro.problems.max_weight_matching import MaxWeightMatching, sequential_max_weight_matching
from repro.problems.maximal_independent_set import (
    MaximalIndependentSet,
    is_maximal_independent_set,
)
from repro.problems.min_weight_dominating_set import (
    MinWeightDominatingSet,
    sequential_min_weight_dominating_set,
)
from repro.problems.min_weight_vertex_cover import (
    MinWeightVertexCover,
    sequential_min_weight_vertex_cover,
)
from repro.problems.vertex_coloring import VertexColoring, is_proper_vertex_coloring
from repro.trees.tree import RootedTree

from mpcbench import inputs as inp_mod
from mpcbench.metrics import (
    BATCH_PROBLEMS,
    PER_LAYER,
    driver_peak_rss_mb,
    exec_split,
    kernel_hit_ratio,
    median,
    percentile_ms,
    process_alive,
    process_peak_rss_mb,
)
from mpcbench.run_state import RunState
from mpcbench.spans import NULL, SpanRecorder

def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _value_check(result: PipelineResult, ref: Any) -> bool:
    return _close(float(result.value), float(ref))


def _mis_check(tree: RootedTree, result: PipelineResult) -> bool:
    return is_maximal_independent_set(tree, result.output["maximal_independent_set"])


def _coloring_check(tree: RootedTree, result: PipelineResult) -> bool:
    coloring = result.output["coloring"]
    return (
        bool(result.output["feasible"])
        and set(coloring) == set(tree.parent)
        and set(coloring.values()) <= {1, 2, 3}
        and is_proper_vertex_coloring(tree, coloring)
    )


@dataclass(frozen=True)
class Problem:
    name: str
    make: Callable[[], Any]
    #: Reference computed once per run from the input tree (or None).
    reference: Optional[Callable[[RootedTree], Any]]
    check: Callable[[RootedTree, PipelineResult, Any], bool]


SUITES: Dict[str, List[Problem]] = {
    # The four optimisation problems of the paper's abstract.
    "batch-shallow": [
        Problem("mwis", MaxWeightIndependentSet, sequential_max_weight_independent_set,
                lambda t, r, ref: _value_check(r, ref)),
        Problem("mwvc", MinWeightVertexCover, sequential_min_weight_vertex_cover,
                lambda t, r, ref: _value_check(r, ref)),
        Problem("mwds", MinWeightDominatingSet, sequential_min_weight_dominating_set,
                lambda t, r, ref: _value_check(r, ref)),
        Problem("mwm", MaxWeightMatching, sequential_max_weight_matching,
                lambda t, r, ref: _value_check(r, ref)),
    ],
    "batch-deep": [
        Problem("mis", MaximalIndependentSet, None, lambda t, r, ref: _mis_check(t, r)),
        Problem("coloring3", lambda: VertexColoring(3), None,
                lambda t, r, ref: _coloring_check(t, r)),
        Problem("count_matchings", lambda: CountMatchingsModK(997),
                lambda t: sequential_count_matchings(t, 997),
                lambda t, r, ref: r.value == ref),
        Problem("longest_path", LongestPath, sequential_longest_path,
                lambda t, r, ref: _value_check(r, ref)),
    ],
}

#: batch-shallow runs the DP layer batches and treeops on a 2-worker pool.
PROCESS_WORKLOADS = {"batch-shallow"}
WORKERS = 2
#: Full cycles per run = --seconds / SECONDS_PER_CYCLE (at least one); the
#: count is fixed before the run so the work never depends on speed.
SECONDS_PER_CYCLE = {"batch-shallow": 20.0, "batch-deep": 10.0}
MIN_SETUPS = 3
SETUP_COUNTS = (
    "representations.rounds",
    "clustering.rounds",
    "clustering.layers",
    "clustering.clusters",
)


@dataclass
class Cycle:
    prepared: PreparedTree
    setup_s: float
    suite_s: float = 0.0
    #: Per problem: solve_on latency and completion time since suite start.
    solve_s: Dict[str, float] = field(default_factory=dict)
    done_s: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, PipelineResult] = field(default_factory=dict)
    suite_window: Tuple[float, float] = (0.0, 0.0)
    suite_metrics: Any = None
    worker_rss_mb: float = 0.0


def _config(workload: str, n: int, obs: str) -> MPCConfig:
    if workload in PROCESS_WORKLOADS:
        return MPCConfig(n=n, exec_backend="process", exec_workers=WORKERS, obs=obs)
    return MPCConfig(n=n, exec_backend="inline", obs=obs)


def _counts(c: Cycle) -> Dict[str, int]:
    p = c.prepared
    st = p.sim.stats
    return {
        "rounds": st.total_rounds,
        "words": st.total_words_sent + st.charged_words,
        "representations.rounds": p.normalization_stats.total_rounds,
        "clustering.rounds": p.clustering_stats.total_rounds,
        "clustering.layers": p.clustering.num_layers,
        "clustering.clusters": len(p.clustering.clusters),
        "dp.rounds": st.charged_by_label.get("dp-pass", 0),
        "dp.words": st.charged_words_by_label.get("dp-pass", 0),
    }


class BatchRun:
    """Drives one batch workload run; see the module docstring."""

    def __init__(self, state: RunState) -> None:
        self.state = state
        self.workload = state.workload
        self.n = inp_mod.SIZES[state.size][self.workload]
        self.suite = SUITES[self.workload]
        self.process = self.workload in PROCESS_WORKLOADS
        #: Counts of every cycle with a suite, and prepare counts of all cycles.
        self.counts: List[Dict[str, int]] = []
        self.setup_counts: List[Dict[str, int]] = []

    # -- inputs and references (outside every timed window) -------------- #

    def generate(self) -> None:
        make = inp_mod.batch_shallow if self.workload == "batch-shallow" else inp_mod.batch_deep
        self.inputs = make(self.n, self.state.seed)
        self.refs = {
            p.name: p.reference(self.inputs.tree) if p.reference else None for p in self.suite
        }

    # -- one cycle -------------------------------------------------------- #

    def cycle(self, rec: Any, obs: str, solve: bool) -> Cycle:
        st = self.state
        config = _config(self.workload, self.n, obs)
        with rec.span("setup"):
            t0 = perf_counter()
            with rec.span("repro.prepare"):
                prepared = prepare(
                    self.inputs.rep, root=self.inputs.root, sim=MPCSimulator(config)
                )
            c = Cycle(prepared=prepared, setup_s=perf_counter() - t0)
        if solve:
            with rec.span("suite"):
                start = perf_counter()
                for p in self.suite:
                    t = perf_counter()
                    with rec.span("repro.solve_on", problem=p.name):
                        c.results[p.name] = self._solve(prepared, p)
                    end = perf_counter()
                    c.solve_s[p.name] = end - t
                    c.done_s[p.name] = end - start
                c.suite_s = perf_counter() - start
                c.suite_window = (start, start + c.suite_s)
        if obs != "off":
            c.suite_metrics = prepared.metrics("json")
        counts = _counts(c)
        self.setup_counts.append({k: counts[k] for k in SETUP_COUNTS})
        if solve:
            self.counts.append(counts)
        return c

    def _solve(self, prepared: PreparedTree, p: Problem) -> Optional[PipelineResult]:
        self.state.attempted += 1
        try:
            return solve_on(prepared, p.make())
        except Exception as exc:  # a failed solve is a failed operation
            self.state.fail(f"{p.name}: solve_on raised {exc!r}", wrong=True)
            return None

    def release(self, c: Cycle) -> None:
        """Check the cycle's answers, stop its pool and drop its state."""
        self.check(c)
        if self.process:
            pids = c.prepared.sim.executor.worker_pids()
            c.worker_rss_mb = process_peak_rss_mb(pids)
            c.prepared.sim.executor.close()
            for pid in pids:
                if process_alive(pid):
                    self.state.fail(f"exec worker {pid} still running after close()")
        c.results.clear()
        c.prepared = None  # type: ignore[assignment]
        gc.collect()

    def check(self, c: Cycle) -> None:
        for p in self.suite:
            result = c.results.get(p.name)
            if result is None:
                continue
            self.state.attempted += 1
            if not p.check(self.inputs.tree, result, self.refs[p.name]):
                self.state.fail(f"{p.name}: wrong answer (value {result.value!r})", wrong=True)

    def exec_health(self, c: Cycle) -> Dict[str, int]:
        health = c.prepared.exec_health() or {}
        return {k: int(health.get(k, 0)) for k in ("retries", "rebuilds", "inline_fallbacks")}

    # -- the two kinds of run -------------------------------------------- #

    def run(self) -> Dict[str, float]:
        self.generate()
        st = self.state
        cycles: List[Cycle] = []
        setups: List[float] = []
        worker_rss = 0.0
        health: Dict[str, int] = {}
        with st.capture_warnings():
            for _ in range(max(1, round(st.seconds / SECONDS_PER_CYCLE[self.workload]))):
                c = self.cycle(NULL, "off", solve=True)
                health = self.exec_health(c)
                setups.append(c.setup_s)
                cycles.append(c)
                self.release(c)
                worker_rss = max(worker_rss, c.worker_rss_mb)
            while len(setups) < MIN_SETUPS:
                c = self.cycle(NULL, "off", solve=False)
                setups.append(c.setup_s)
                health = self.exec_health(c)
                self.release(c)
                worker_rss = max(worker_rss, c.worker_rss_mb)
        peak = driver_peak_rss_mb() + worker_rss
        st.supervision(health)
        st.guard_equal("prepare counts", self.setup_counts)
        st.guard_equal("cycle counts", self.counts)
        acks = [c.suite_s for c in cycles for _p in self.suite]
        dones = [c.done_s[p.name] for c in cycles for p in self.suite]
        st.samples.update(
            setup_s=len(setups), solve_s=len(cycles), updates_per_s=len(acks),
            update_p50_ms=len(acks), update_p99_ms=len(acks),
            read_p50_ms=len(dones), read_p99_ms=len(dones),
            rounds=len(self.counts), words=len(self.counts), peak_rss_mb=1,
        )
        return {
            "setup_s": median(setups),
            "solve_s": median([c.suite_s for c in cycles]),
            "updates_per_s": len(acks) / sum(c.suite_s for c in cycles),
            "update_p50_ms": percentile_ms(acks, 50),
            "update_p99_ms": percentile_ms(acks, 99),
            "read_p50_ms": percentile_ms(dones, 50),
            "read_p99_ms": percentile_ms(dones, 99),
            "rounds": self.counts[0]["rounds"],
            "words": self.counts[0]["words"],
            "peak_rss_mb": peak,
        }

    def run_traced(self) -> Dict[str, float]:
        self.generate()
        st = self.state
        rec = SpanRecorder(st.run_id)
        with st.capture_warnings():
            base = self.cycle(NULL, "off", solve=True)
            untraced_s = base.setup_s + base.suite_s
            self.release(base)
            with rec.span("run", workload=self.workload, seed=st.seed):
                c = self.cycle(rec, "trace", solve=True)
                traced_s = c.setup_s + c.suite_s
                repeat: Dict[str, float] = {}
                with rec.span("repeat-suite"):
                    for p in self.suite:
                        t = perf_counter()
                        with rec.span("repro.solve_on", problem=p.name, repeat=True):
                            self._solve(c.prepared, p)
                        repeat[p.name] = perf_counter() - t
            health = self.exec_health(c)
            layers = self._layers(c, repeat, health)
            program_spans = c.prepared.trace()
            self.release(c)
        layers["exec.worker_peak_rss_mb"] = c.worker_rss_mb
        layers["obs.trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        st.supervision(health)
        st.guard_equal("prepare counts", self.setup_counts)
        st.guard_equal("cycle counts", self.counts)
        st.write_trace(rec, program_spans, layers, self._shares(layers, c))
        return layers

    def _layers(
        self, c: Cycle, repeat: Dict[str, float], health: Dict[str, int]
    ) -> Dict[str, float]:
        p = c.prepared
        counts = self.counts[-1]  # taken before the repeat suite
        lo, hi = c.suite_window
        bottom_up = top_down = 0.0
        for s in p.trace():
            if s["name"] == "dp.layer" and lo <= s["start"] <= hi:
                if s["attrs"].get("dp_pass") == "bottom-up":
                    bottom_up += s["duration"]
                else:
                    top_down += s["duration"]
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(
            {
                "representations.busy_s": p.timings["normalize"],
                "clustering.degree_reduction_s": p.timings["degree_reduction"],
                "clustering.build_s": p.timings["clustering"],
                "dp.plan_s": sum(c.solve_s[k] - repeat[k] for k in repeat),
                "dp.bottom_up_s": bottom_up,
                "dp.top_down_s": top_down,
                "dp.kernel_hit_ratio": kernel_hit_ratio(c.suite_metrics),
                "exec.retries": health["retries"],
                "exec.rebuilds": health["rebuilds"],
                "exec.inline_fallbacks": health["inline_fallbacks"],
            }
        )
        for k in ("representations.rounds", "clustering.rounds", "clustering.layers",
                  "clustering.clusters", "dp.rounds", "dp.words"):
            layers[k] = counts[k]
        for name in BATCH_PROBLEMS:
            if name in c.solve_s:
                layers[f"dp.solve_s.{name}"] = c.solve_s[name]
        layers.update(exec_split(c.suite_metrics))
        return layers

    @staticmethod
    def _shares(layers: Dict[str, float], c: Cycle) -> Dict[str, float]:
        total = c.setup_s + c.suite_s
        shares = {
            "repro.representations": layers["representations.busy_s"],
            "repro.clustering": layers["clustering.degree_reduction_s"]
            + layers["clustering.build_s"],
            "repro.dp": layers["dp.bottom_up_s"] + layers["dp.top_down_s"],
            "repro.mpc.exec (transport)": layers["exec.transport_s"],
            "repro.mpc.exec (treeops)": layers["exec.treeops_s"],
        }
        return {k: v / total for k, v in shares.items()}

