"""serve-rw: one inline ``TreeServer`` under closed-loop writes and open-loop reads.

Setup (``prepare()`` + ``TreeServer`` construction, which runs the initial
solves, + ``start()``) is timed four times, two before the traffic and two
after it, so the medians span the run; the second server takes the
traffic.  Eight closed-loop writer coroutines each submit one point update
and await its ``BatchApplied`` before sending the next, so every batch holds
exactly eight updates and the batches are the same in every run.  One
open-loop reader issues ``query_label`` calls at a fixed rate, alternating
problems, each timed from the moment it was due.  Everything runs as
coroutines on one event loop; the only other thread is the server's solver
thread.  The stream length is ``seconds * WRITES_PER_WRITER_PER_S`` per
writer, fixed before the run starts, so the counts never depend on speed.
"""

from __future__ import annotations

import asyncio
import gc
from time import perf_counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.pipeline import PreparedTree, prepare, solve_on
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.max_weight_matching import MaxWeightMatching
from repro.serving import BatchApplied, ServerConfig, TreeServer
from repro.trees.tree import RootedTree

from mpcbench import inputs as inp_mod
from mpcbench.metrics import (
    PER_LAYER,
    driver_peak_rss_mb,
    kernel_hit_ratio,
    median,
    percentile_ms,
)
from mpcbench.run_state import RunState
from mpcbench.spans import NULL, SpanRecorder

PROBLEMS = (MaxWeightIndependentSet, MaxWeightMatching)
READS_PER_S = 200.0
WRITES_PER_WRITER_PER_S = 6.5
MIN_PER_WRITER = 4
SETUPS = 4
#: Setups made before the traffic; the last of them serves it.
SETUPS_BEFORE = 2
#: Library defaults, spelled out so REPRO_SERVING_* cannot change the run.
SERVER_CONFIG = dict(max_batch=256, max_delay=0.0, queue_limit=10_000)


@dataclass
class Served:
    """One setup and, for the measured server, its traffic."""

    prepared: PreparedTree
    server: TreeServer
    setup_s: float
    construct_s: float
    setup_counts: Dict[str, int]
    update_s: List[float] = field(default_factory=list)
    applied: List[Optional[BatchApplied]] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    read_late_s: List[float] = field(default_factory=list)
    read_versions: List[Tuple[str, int]] = field(default_factory=list)
    writer_wall_s: float = 0.0
    #: Traced run only: per-batch seconds in apply_updates and views().
    apply_s: List[float] = field(default_factory=list)
    publish_s: List[float] = field(default_factory=list)


def _copy(tree: RootedTree) -> RootedTree:
    # The server writes payloads into the tree it serves; keep the input clean.
    return RootedTree(
        root=tree.root,
        parent=dict(tree.parent),
        node_data=dict(tree.node_data),
        edge_data=dict(tree.edge_data),
    )


class ServeRun:
    """Drives one serve-rw run; see the module docstring."""

    def __init__(self, state: RunState) -> None:
        self.state = state
        self.n = inp_mod.SIZES[state.size]["serve-rw"]
        self.per_writer = max(MIN_PER_WRITER, round(state.seconds * WRITES_PER_WRITER_PER_S))

    def generate(self) -> None:
        self.inputs = inp_mod.serve_rw(self.n, self.state.seed, self.per_writer)

    # -- setup ------------------------------------------------------------ #

    async def setup(self, rec: Any, obs: str) -> Served:
        st = self.state
        tree = _copy(self.inputs.tree)
        config = MPCConfig(n=self.n, exec_backend="inline", obs=obs)
        with rec.span("setup"):
            t0 = perf_counter()
            with rec.span("repro.prepare"):
                prepared = prepare(tree, sim=MPCSimulator(config))
            t1 = perf_counter()
            with rec.span("repro.TreeServer"):
                server = TreeServer(
                    prepared, [p() for p in PROBLEMS], config=ServerConfig(**SERVER_CONFIG)
                )
            t2 = perf_counter()
        # start() creates the writer task, which copies the current span
        # context; start it outside "setup" so batch spans do not nest there.
        await server.start()
        t3 = perf_counter()
        stats = prepared.sim.stats
        counts = {
            "rounds": stats.total_rounds,
            "words": stats.total_words_sent + stats.charged_words,
            "clustering.clusters": len(prepared.clustering.clusters),
            "clustering.layers": prepared.clustering.num_layers,
        }
        return Served(prepared, server, t3 - t0, t2 - t1, counts)

    # -- traffic ---------------------------------------------------------- #

    async def traffic(self, s: Served, rec: Any) -> None:
        st = self.state
        server = s.server
        loop_stop = asyncio.Event()

        async def writer(ups: List[Any]) -> None:
            for up in ups:
                st.attempted += 1
                t = perf_counter()
                try:
                    with rec.span("update"):
                        res = await server.update(up)
                except Exception as exc:  # rejected or raised: a failed write
                    st.fail(f"update {up!r} failed: {exc!r}", wrong=True)
                    res = None
                s.update_s.append(perf_counter() - t)
                s.applied.append(res)

        async def reader() -> None:
            problems = server.problems
            nodes = self.inputs.read_nodes
            start = perf_counter()
            k = 0
            while not loop_stop.is_set():
                due = start + k / READS_PER_S
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                issued = perf_counter()
                problem = problems[k % len(problems)]
                st.attempted += 1
                try:
                    with rec.span("read"):
                        version = server.snapshot(problem).version
                        await server.query_label(nodes[k % len(nodes)], problem)
                except Exception as exc:
                    st.fail(f"read failed: {exc!r}", wrong=True)
                else:
                    s.read_versions.append((problem, version))
                s.read_s.append(perf_counter() - due)
                s.read_late_s.append(issued - due)
                k += 1

        reader_task = asyncio.get_running_loop().create_task(reader())
        t0 = perf_counter()
        try:
            await asyncio.gather(*(writer(ups) for ups in self.inputs.writes))
            s.writer_wall_s = perf_counter() - t0
        finally:
            loop_stop.set()
            await reader_task

    def instrument(self, s: Served, rec: SpanRecorder) -> None:
        """Traced run: time the group's apply and publication from outside."""
        group = s.server.group
        apply_updates, views = group.apply_updates, group.views

        def timed_apply(updates: Any) -> Any:
            t = perf_counter()
            try:
                with rec.span("repro.IncrementalSolverGroup.apply_updates"):
                    return apply_updates(updates)
            finally:
                s.apply_s.append(perf_counter() - t)

        def timed_views() -> Any:
            t = perf_counter()
            try:
                with rec.span("repro.IncrementalSolverGroup.views"):
                    return views()
            finally:
                s.publish_s.append(perf_counter() - t)

        group.apply_updates = timed_apply  # type: ignore[method-assign]
        group.views = timed_views  # type: ignore[method-assign]

    # -- checks (outside the timed windows) -------------------------------- #

    def check(self, s: Served) -> None:
        st = self.state
        batches = {}
        for res in s.applied:
            if res is not None:
                batches[res.version] = res
        sizes = sorted({res.updates for res in batches.values()})
        st.guard_equal(
            "serve-rw batching",
            [{"batches": len(batches), "updates_per_batch": sizes},
             {"batches": self.per_writer, "updates_per_batch": [inp_mod.WRITERS]}],
        )
        last: Dict[str, int] = {}
        for problem, version in s.read_versions:
            if version < last.get(problem, 0):
                st.fail(f"read of {problem} went back to version {version}", wrong=True)
            last[problem] = version
        mutated = _copy(self.inputs.tree)
        for step in range(self.per_writer):
            for ups in self.inputs.writes:
                up = ups[step]
                store = mutated.node_data if up.kind == "node" else mutated.edge_data
                store[up.target] = up.data
        reference = prepare(mutated)
        for problem in PROBLEMS:
            st.attempted += 1
            ref = solve_on(reference, problem())
            snap = s.server.snapshot(problem.name)
            same = (
                snap.value == ref.value
                and snap.root_label == ref.root_label
                and dict(snap.node_labels) == ref.node_labels
                and dict(snap.view.edge_labels) == ref.edge_labels
            )
            if not same:
                st.fail(f"{problem.name}: served snapshot differs from a from-scratch solve()",
                        wrong=True)

    # -- the two kinds of run --------------------------------------------- #

    def run(self) -> Dict[str, float]:
        self.generate()
        return asyncio.run(self._run())

    async def _run(self) -> Dict[str, float]:
        st = self.state
        setups: List[Served] = []
        with st.capture_warnings():
            for i in range(SETUPS):
                x = await self.setup(NULL, "off")
                setups.append(x)
                if i == SETUPS_BEFORE - 1:
                    s = x
                    await self.traffic(s, NULL)
                    peak = driver_peak_rss_mb()
                    stats = s.prepared.sim.stats
                    await s.server.stop()
                    self.check(s)
                else:
                    await x.server.stop()
                x.server = x.prepared = None  # type: ignore[assignment]
                gc.collect()
        st.guard_equal("setup counts", [x.setup_counts for x in setups])
        st.samples.update(
            setup_s=len(setups), solve_s=len(setups), updates_per_s=len(s.update_s),
            update_p50_ms=len(s.update_s), update_p99_ms=len(s.update_s),
            read_p50_ms=len(s.read_s), read_p99_ms=len(s.read_s),
            rounds=1, words=1, peak_rss_mb=1,
        )
        return {
            "setup_s": median([x.setup_s for x in setups]),
            "solve_s": median([x.construct_s for x in setups]),
            "updates_per_s": len(s.update_s) / s.writer_wall_s,
            "update_p50_ms": percentile_ms(s.update_s, 50),
            "update_p99_ms": percentile_ms(s.update_s, 99),
            "read_p50_ms": percentile_ms(s.read_s, 50),
            "read_p99_ms": percentile_ms(s.read_s, 99),
            "rounds": stats.total_rounds,
            "words": stats.total_words_sent + stats.charged_words,
            "peak_rss_mb": peak,
        }

    def run_traced(self) -> Dict[str, float]:
        self.generate()
        return asyncio.run(self._run_traced())

    async def _run_traced(self) -> Dict[str, float]:
        st = self.state
        rec = SpanRecorder(st.run_id)
        with st.capture_warnings():
            base = await self.setup(NULL, "off")
            await self.traffic(base, NULL)
            untraced_s = base.setup_s + base.writer_wall_s
            await base.server.stop()
            base_counts = self._counts(base)
            base.server = base.prepared = None  # type: ignore[assignment]
            gc.collect()
            with rec.span("run", workload=st.workload, seed=st.seed):
                s = await self.setup(rec, "trace")
                self.instrument(s, rec)
                await self.traffic(s, rec)
            traced_s = s.setup_s + s.writer_wall_s
            await s.server.stop()
        st.guard_equal("serve-rw counts (untraced vs traced)", [base_counts, self._counts(s)])
        self.check(s)
        layers = self._layers(s)
        layers["obs.trace_overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0
        total = s.setup_s + s.writer_wall_s
        shares = {
            "repro.representations": layers["representations.busy_s"] / total,
            "repro.clustering": (layers["clustering.degree_reduction_s"]
                                 + layers["clustering.build_s"]) / total,
            "repro.dp (initial solves)": layers["incremental.initial_solve_s"] / total,
            "repro.dynamic (apply_updates)": sum(s.apply_s) / total,
            "repro.dynamic (views, publication)": sum(s.publish_s) / total,
        }
        st.write_trace(rec, s.prepared.trace(), layers, shares)
        return layers

    @staticmethod
    def _counts(s: Served) -> Dict[str, int]:
        stats = s.prepared.sim.stats
        return {
            "rounds": stats.total_rounds,
            "words": stats.total_words_sent + stats.charged_words,
            "serving.batches": s.server.health_report()["server"]["batches_applied"],
        }

    def _layers(self, s: Served) -> Dict[str, float]:
        p = s.prepared
        stats = p.sim.stats
        batches: Dict[int, BatchApplied] = {}
        for res in s.applied:
            if res is not None:
                batches[res.version] = res
        reports = [rep for b in batches.values() for rep in b.reports.values()]
        nb = max(1, len(batches))
        resolved = sum(r.clusters_resolved for r in reports)
        changed = sum(r.summaries_changed for r in reports)
        overhead = [
            lat - s.apply_s[res.version - 1] - s.publish_s[res.version - 1]
            for lat, res in zip(s.update_s, s.applied)
            if res is not None
        ]
        health = s.server.health_report()["server"]
        metrics_json = p.metrics("json")
        bottom_up = top_down = 0.0
        for span in p.trace():
            if span["name"] == "dp.layer" and span["attrs"].get("label") != "dp-update":
                if span["attrs"].get("dp_pass") == "bottom-up":
                    bottom_up += span["duration"]
                else:
                    top_down += span["duration"]
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(
            {
                "representations.busy_s": p.timings["normalize"],
                "representations.rounds": p.normalization_stats.total_rounds,
                "clustering.degree_reduction_s": p.timings["degree_reduction"],
                "clustering.build_s": p.timings["clustering"],
                "clustering.rounds": p.clustering_stats.total_rounds,
                "clustering.layers": p.clustering.num_layers,
                "clustering.clusters": len(p.clustering.clusters),
                "dp.bottom_up_s": bottom_up,
                "dp.top_down_s": top_down,
                "dp.rounds": stats.charged_by_label.get("dp-pass", 0),
                "dp.words": stats.charged_words_by_label.get("dp-pass", 0),
                "dp.kernel_hit_ratio": kernel_hit_ratio(metrics_json),
                "incremental.initial_solve_s": sum(
                    m.initial_solve_seconds for m in s.server.group.solvers.values()
                ),
                "incremental.apply_ms_p50": percentile_ms(s.apply_s, 50),
                "incremental.apply_ms_p99": percentile_ms(s.apply_s, 99),
                "incremental.publish_ms_p50": percentile_ms(s.publish_s, 50),
                "incremental.publish_ms_p99": percentile_ms(s.publish_s, 99),
                "incremental.clusters_resolved": resolved / nb,
                "incremental.clusters_relabeled": sum(r.clusters_relabeled for r in reports) / nb,
                "incremental.prune_ratio": changed / resolved if resolved else 0.0,
                "incremental.full_resolves": sum(1 for r in reports if r.full_resolve),
                "incremental.rounds": stats.charged_by_label.get("dp-update", 0),
                "incremental.words": stats.charged_words_by_label.get("dp-update", 0),
                "serving.batches": health["batches_applied"],
                "serving.batch_updates_mean": health["updates_applied"] / nb,
                "serving.overhead_ms_p50": percentile_ms(overhead, 50) if overhead else 0.0,
                "loadgen.read_late_p99_ms": percentile_ms(s.read_late_s, 99),
            }
        )
        return layers
