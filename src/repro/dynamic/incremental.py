"""Incremental re-solve of DP problems under point updates (serving path).

After ``prepare()`` + one full solve, every weight tweak or payload edit used
to pay a full bottom-up/top-down pass from scratch.  The cluster/layer
decomposition localizes the effect of a *point* update: a node payload is
read by exactly one element (its node element), an edge payload by the
elements that absorb a child through it (inside the cluster it is internal
to, and at the hole of each nested indegree-one cluster it enters) — and a
changed cluster summary only by the element absorbing that cluster, one
layer or more up.  A single-vertex update therefore dirties at most one
cluster per layer (the paper's O(log n) chain; cf. Italiano & Mirrokni's
dynamic-MPC framing), and inside each of those clusters only the path from
the changed element up to the cluster's top; the update path re-solves
those paths, not whole clusters.

:class:`IncrementalSolver` wraps a prepared tree plus one solved problem and
accepts batched point updates without re-clustering:

* **Partial bottom-up.**  Updates seed the elements that read the touched
  payloads, looked up in the compiled plan's
  :class:`~repro.dp.kernels.plan.SeedIndex` once per batch for a whole
  group.  Each touched layer's dirty clusters are re-summarized as one
  batch through the same :meth:`~repro.dp.engine.DPEngine.summarize_clusters`
  path the full solve uses — a row selection of the compiled layer plan, so
  the vectorized kernels' grouped array programs and affine tensor
  decompositions are all reused (a weight-only edit inside one affine group
  re-*composes* tensors; it never re-enumerates the problem's scalar
  rules).  The batch names its dirty elements, and the dense kernels
  re-solve only those and their ancestors; every other element keeps the
  tables the last pass stored.  A re-solved cluster whose summary comes
  out bit-identical stops the chain — its parent's inputs did not change;
  one that changed dirties the element absorbing it.  Healing passes and
  full re-solves trust no stored state: they re-solve whole clusters and
  prune nothing.
* **Partial top-down.**  Only re-solved clusters and clusters whose boundary
  (out-edge / in-edge) label changed re-derive internal labels; label
  changes propagate strictly downward through the hierarchy, so the pass
  walks exactly the affected root-to-leaf label paths, one layer batch at
  a time, through the same driver as the full solve
  (:meth:`~repro.dp.engine.DPEngine.label_clusters`).  The boundary
  dependents come from the plan's :class:`~repro.dp.kernels.plan.SeedIndex`.
  Inside each relabeled cluster the dense kernels replay only the elements
  whose backpointers were re-solved, whose boundary state moved, or whose
  parent's replayed state moved; every other element keeps the state its
  last replay stored.
* **Label arrays.**  Each solver keeps its labels in one array over the
  plan's node index (:mod:`repro.dp.kernels.labels`): state ids for dense
  problems.  An update batch compares and writes only its relabeled
  clusters' edges; a result view freezes a copy of the array behind
  read-only mappings, with no per-label Python work.
* **Accounting.**  Rounds and routed words of the partial passes are
  charged under the separate ``"dp-update"`` label
  (:data:`~repro.dp.engine.DP_UPDATE_LABEL`), so benchmarks can compare an
  update's cost against the initial solve's ``"dp-pass"`` charges.

Supported updates are payload edits on existing nodes and edges
(:func:`node_update` / :func:`edge_update`) — weight changes, clause-weight
edits, tag/op/leaf-value swaps.  Structural edits (adding/removing nodes or
edges) are *not* supported: they invalidate the clustering itself, so
callers must re-run ``prepare()``.  A batch whose dirty closure covers most
of the hierarchy falls back to a full re-solve of every cluster (still
without re-clustering); :meth:`IncrementalSolver.refresh` forces that
explicitly.

Every state the solver maintains (summaries, labels, value) stays
bit-identical to a from-scratch ``solve()`` on the updated tree — the
differential fuzz suite asserts this after every step of randomized update
sequences, across tree families, the problem registry and both kernel
backends.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import InitVar, dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.pipeline import PipelineResult, PreparedTree, as_cluster_dp
from repro.dp.engine import DP_UPDATE_LABEL, SolveResult
from repro.dp.kernels.labels import EdgeLabels, NodeLabels, label_views, summaries_equal
from repro.dp.kernels.plan import ElementAt, SeedIndex
from repro.mpc.simulator import RoundStats
from repro.obs import DEFAULT_SIZE_BUCKETS, clock

__all__ = [
    "ConcurrentUpdateError",
    "PointUpdate",
    "SolvedView",
    "UpdateReport",
    "IncrementalSolver",
    "IncrementalSolverGroup",
    "node_update",
    "edge_update",
    "summaries_equal",
]


class ConcurrentUpdateError(RuntimeError):
    """A second update batch entered while a pass was mid-flight.

    The solver's partial passes mutate the pending-dirty set, the summary
    dict and the label array in place; two interleaved ``apply_updates``
    calls would corrupt them silently.  The solver therefore refuses
    overlapping entry outright instead of blocking — serialization is the
    caller's job (the serving layer funnels all batches through a single
    writer task).
    """

#: Recognised update kinds.
UPDATE_KINDS = ("node", "edge")


@dataclass(frozen=True)
class PointUpdate:
    """One payload edit.

    Attributes
    ----------
    kind:
        ``"node"`` or ``"edge"``.
    target:
        The node id, or the ``(child, parent)`` edge of the *original*
        (pre-degree-reduction) tree.
    data:
        The new payload (replaces the old one wholesale); ``None`` removes
        the payload.
    """

    kind: str
    target: Any
    data: Any = None


def node_update(v: Hashable, data: Any) -> PointUpdate:
    """Replace node ``v``'s payload (weight, clause set, tag, leaf value...)."""
    return PointUpdate("node", v, data)


def edge_update(edge: Tuple[Hashable, Hashable], data: Any) -> PointUpdate:
    """Replace edge ``(child, parent)``'s payload (weight, clause set, ...)."""
    return PointUpdate("edge", tuple(edge), data)


@dataclass
class UpdateReport:
    """What one update batch did for one solver (one member of a group).

    ``clusters_resolved`` counts bottom-up local re-solves (for a
    single-vertex update this is bounded by the number of layers),
    ``clusters_relabeled`` the top-down label re-derivations, and
    ``rounds_charged`` / ``words_charged`` the update's ``"dp-update"``
    accounting.  ``full_resolve`` marks the bulk-update fallback where every
    cluster was re-solved.  ``seconds`` is this member's resolve time: the
    batch's validation and payload writes, shared by all members, are not
    in it, for a lone :class:`IncrementalSolver` either.
    """

    updates: int
    clusters_resolved: int = 0
    clusters_relabeled: int = 0
    summaries_changed: int = 0
    edges_relabeled: int = 0
    layers_resolved: int = 0
    layers_relabeled: int = 0
    rounds_charged: int = 0
    words_charged: int = 0
    value: Any = None
    value_changed: bool = False
    root_label_changed: bool = False
    full_resolve: bool = False
    seconds: float = 0.0
    dirty_seed_clusters: Tuple[int, ...] = field(default_factory=tuple)


class _OnFirstRead:
    """``build()``'s result, computed by the first :meth:`get` and kept.

    A reader that arrives while another thread builds waits for it, so the
    value is built once.  The builder, and whatever it references, is
    dropped once the value is in.
    """

    __slots__ = ("_build", "_value", "_lock")

    def __init__(self, build: Callable[[], Any]) -> None:
        self._build: Optional[Callable[[], Any]] = build
        self._value: Any = None
        self._lock = threading.Lock()

    def get(self) -> Any:
        if self._build is not None:
            with self._lock:
                build = self._build
                if build is not None:
                    self._value = build()
                    self._build = None
        return self._value


@dataclass(frozen=True)
class SolvedView:
    """An immutable snapshot of one solved problem at a batch boundary.

    The label mappings are read-only views of a frozen copy of the solver's
    label array (:mod:`repro.dp.kernels.labels`), so a view handed to a
    concurrent reader (the serving layer's snapshot store) stays bit-stable
    while the solver applies further batches.  Labels are projected back to
    *original* (pre-degree-reduction) edges, exactly like
    :meth:`IncrementalSolver.as_pipeline_result`.

    :attr:`output` (the problem's post-processing of the labels: the
    independent set, the matching...) is built by ``build_output`` on its
    first read, on the reading thread (the event loop, for a
    :class:`~repro.serving.TreeServer`'s readers), once per view; a
    concurrent second reader waits for the first.  Reading ``value`` or the
    labels (``query_value``, ``query_label``) never builds it.
    :meth:`IncrementalSolver.view` binds ``build_output`` to the view's own
    version, so a view kept across later batches still builds its own
    version's output.  Equality and ``repr`` ignore it.
    """

    problem: str
    value: Any
    root_label: Any
    node_labels: Mapping[Hashable, Any]
    edge_labels: Mapping[Tuple[Hashable, Hashable], Any]
    updates_applied: int
    build_output: InitVar[Callable[[], Any]]
    _output: _OnFirstRead = field(init=False, repr=False, compare=False)

    def __post_init__(self, build_output: Callable[[], Any]) -> None:
        object.__setattr__(self, "_output", _OnFirstRead(build_output))

    @property
    def output(self) -> Any:
        """The problem's output at this view's version, built on first read."""
        return self._output.get()


class IncrementalSolver:
    """A solved DP problem on a prepared tree that accepts point updates.

    Parameters
    ----------
    prepared:
        The :class:`~repro.core.pipeline.PreparedTree` (clustering is reused
        unchanged for the solver's whole lifetime).
    problem:
        Any problem type :func:`~repro.core.pipeline.as_cluster_dp` accepts.
    backend:
        Finite-state backend override (defaults to the deployment's
        ``dp_backend``).
    full_resolve_threshold:
        When a batch's dirty closure covers at least this fraction of all
        clusters, fall back to re-solving every cluster (skipping the
        per-cluster change tracking, whose bookkeeping would only add
        overhead).  ``1.0`` keeps the partial path always.
    fault_plan:
        Optional :class:`~repro.mpc.exec.faults.FaultPlan` consulted at the
        ``"update-layer"`` site once per bottom-up layer of each update
        pass; a matching entry raises
        :class:`~repro.mpc.exec.faults.InjectedFault` mid-pass.  This is
        the chaos hook for testing the pending-dirty heal path — payloads
        are already written when a pass dies, so the next batch must fold
        the pending chains back in.  ``None`` (the default) injects
        nothing.
    cache_entries:
        LRU bound on the dense backend's payload-value-keyed rule caches
        (overrides the ``REPRO_DP_CACHE_ENTRIES`` default); ``None`` keeps
        the environment default.  The backend's backpointer arrays need no
        bound: they are sized by the clustering once.

    The constructor runs the initial full solve; its statistics are kept in
    :attr:`initial_stats` for update-vs-full comparisons.

    Notes
    -----
    All of this solver's passes — the initial solve, partial re-solves and
    :meth:`refresh` — run inline even when the deployment selects
    ``exec_backend="process"``: the update path re-reads the solver's
    driver-side memo state (backpointer arrays, rule-tensor caches), which a
    worker-side solve would not populate.  Full solves through
    :func:`~repro.core.pipeline.solve_on` are unaffected.
    """

    def __init__(
        self,
        prepared: PreparedTree,
        problem: Any,
        backend: Optional[str] = None,
        full_resolve_threshold: float = 0.6,
        fault_plan: Optional[Any] = None,
        cache_entries: Optional[int] = None,
    ):
        if not (0.0 < full_resolve_threshold <= 1.0):
            raise ValueError("full_resolve_threshold must be in (0, 1]")
        self.prepared = prepared
        self._fault_plan = fault_plan
        self.problem = problem
        self.solver = as_cluster_dp(problem, backend=backend or prepared.sim.config.dp_backend)
        # LRU bound on the dense backend's payload-value-keyed caches.  A
        # long-running serving solver needs it to keep flat memory; the python
        # backend has no such caches, so the knob is a no-op there.
        if cache_entries is not None:
            dense = getattr(self.solver, "_dense", None)
            if dense is not None:
                dense.tensors.set_value_cache_entries(cache_entries)
        self.engine = prepared.engine()
        # The full solves run inline even under exec_backend="process": the
        # update path re-reads this solver's driver-side memos (backpointer
        # arrays, replayed states, rule-tensor caches), which a worker-side
        # solve would not populate.  The role also keys its kernel gauges.
        self.engine.role = "incremental"
        self.obs = prepared.sim.obs
        self.hc = prepared.clustering
        self.full_resolve_threshold = full_resolve_threshold
        self.updates_applied = 0
        #: ``"dp-update"`` rounds charged by this solver's own passes: the
        #: sum of its reports' ``rounds_charged``, :meth:`refresh` included.
        self.update_rounds = 0
        #: Dirty clusters of a batch whose solve phase raised mid-pass (a
        #: payload the problem's rules reject, a strict-mode capacity
        #: violation).  Payloads are written before the passes run, so on
        #: such a failure the solved state no longer reflects the tree; the
        #: pending set is folded into the next batch's seeds so repairing
        #: the payload and re-applying restores consistency, and the result
        #: views refuse to serve stale state in between.
        self._pending_dirty: Set[int] = set()
        # Re-entrancy guard (see ConcurrentUpdateError): _begin_apply flips
        # the flag atomically, so overlapping apply calls — a second thread,
        # or a callback re-entering from inside a pass — fail fast instead
        # of corrupting the pending-dirty set mid-flight.
        self._apply_mutex = threading.Lock()
        self._apply_active = False
        self._solve_initial()

    # ------------------------------------------------------------------ #
    # Initial solve / full fallback
    # ------------------------------------------------------------------ #

    def _solve_initial(self) -> None:
        sim = self.prepared.sim
        snap = sim.snapshot()
        t0 = clock.now()
        with self.obs.trace(
            "incremental.initial_solve",
            problem=str(getattr(self.problem, "name", type(self.problem).__name__)),
        ):
            res = self.engine.solve(self.solver)
        self.initial_solve_seconds = clock.now() - t0
        #: ``"dp-pass"`` rounds/words of the initial full solve.
        self.initial_stats: RoundStats = sim.stats.diff(snap)
        self.summaries: Dict[int, Any] = res.summaries
        self.value = res.value
        self.root_label = res.root_label
        #: The label array (None: the problem produces no labels); the
        #: solve's frozen one, copied once so update batches can write it.
        self._labels: Optional[np.ndarray] = (
            res.node_labels.array.copy() if self.solver.produces_labels else None
        )
        self.layers = res.layers

    def refresh(self) -> UpdateReport:
        """Full re-solve of every cluster against the current payloads.

        The explicit fallback for callers who mutated tree payloads behind
        the solver's back; clusterings never change, so this is still
        cheaper than a new ``prepare()``.  Charged under ``"dp-update"``.
        The plan's whole payload cache is dropped — out-of-band mutations
        bypass the per-update invalidation — and so are the solver's
        payload-value-keyed rule-tensor caches, making ``refresh()`` the
        memory release valve of a long-lived serving solver: those caches
        otherwise accumulate one entry per *distinct* payload value ever
        seen.  The full re-solve rewrites every backpointer row; tensors
        rebuild on demand.
        """
        (report,) = _write_batch((self,), [], refresh=True)
        return report

    # ------------------------------------------------------------------ #
    # Update entry points
    # ------------------------------------------------------------------ #

    def apply_updates(self, updates: Sequence[PointUpdate]) -> UpdateReport:
        """Apply a batch of payload edits and restore the solved state.

        Raises :class:`ConcurrentUpdateError` if another batch is mid-flight
        (the solver never blocks; serialization is the caller's job).
        """
        (report,) = _write_batch((self,), updates)
        return report

    def validate(self, updates: Sequence[PointUpdate]) -> None:
        """Raise on any unsupported update descriptor, writing nothing.

        The same up-front check :meth:`apply_updates` runs; the serving
        layer uses it to reject a bad submission *before* it is coalesced
        into a batch with other clients' updates.
        """
        _validate(self.prepared, updates)

    def update_node(self, v: Hashable, data: Any) -> UpdateReport:
        """Convenience: one node payload edit."""
        return self.apply_updates([node_update(v, data)])

    def update_edge(self, edge: Tuple[Hashable, Hashable], data: Any) -> UpdateReport:
        """Convenience: one edge payload edit."""
        return self.apply_updates([edge_update(edge, data)])

    def _wants_child_seeds(self) -> bool:
        """Whether this problem's rules read a node's payload from its children."""
        return getattr(self.problem, "update_scope", "node") == "node+children"

    # ------------------------------------------------------------------ #
    # The partial passes
    # ------------------------------------------------------------------ #

    def _begin_apply(self) -> None:
        """Claim the solver for one batch; raise if one is already mid-flight."""
        with self._apply_mutex:
            if self._apply_active:
                raise ConcurrentUpdateError(
                    "an update batch is already being applied to this "
                    "IncrementalSolver; overlapping apply calls would corrupt "
                    "the pending-dirty set.  Serialize batches (the serving "
                    "layer's batcher does this) instead of calling apply "
                    "concurrently."
                )
            self._apply_active = True

    def _end_apply(self) -> None:
        with self._apply_mutex:
            self._apply_active = False

    def _seed_index(self) -> SeedIndex:
        return self.engine.plan().seed_index()

    def _resolve_batch(
        self, seeds: Set[ElementAt], num_updates: int, force_full: bool
    ) -> UpdateReport:
        """Re-solve the dirty chains seeded by an already-written batch.

        The per-member half of :func:`_write_batch`, which writes a batch's
        payloads and computes its element seeds *once* for all members.
        Callers must hold the apply guard (:meth:`_begin_apply`).
        """
        sim = self.prepared.sim
        hc = self.hc
        obs = self.obs
        index = self._seed_index()
        t0 = clock.now()
        # Payloads a failed earlier batch already wrote still need their
        # chains re-solved; fold them in so repair-and-reapply heals.  The
        # failed pass may have written some of its chain summaries and
        # element tables before raising, so while healing neither is
        # trusted: a re-solved summary can equal the *poisoned* baseline the
        # failed pass stored while the ancestors above it still reflect the
        # old payload, and a stored table may be half a pass old.  Heal with
        # pruning disabled and whole clusters: the pending chains re-solve
        # all the way to the final cluster.
        healing = bool(self._pending_dirty)
        cids = index.clusters(seeds) | self._pending_dirty
        report = UpdateReport(updates=num_updates, dirty_seed_clusters=tuple(sorted(cids)))

        full = force_full or (
            bool(cids)
            and index.closure_size(cids) >= self.full_resolve_threshold * len(hc.clusters)
        )
        if full:
            report.full_resolve = True
            cids = {cid for layer in hc.layers for cid in layer}
        if not cids:
            report.value = self.value
            report.seconds = clock.now() - t0
            self._observe_report(report)
            return report

        snap = sim.snapshot()
        self._pending_dirty = set(cids)
        with obs.trace(
            "incremental.resolve",
            seeds=len(cids),
            updates=num_updates,
            full=full,
            healing=healing,
        ) as span:
            resolved = self._partial_bottom_up(
                cids, None if full or healing else seeds, report=report
            )
            self._partial_top_down(resolved, report)
            span.set(
                resolved=report.clusters_resolved,
                relabeled=report.clusters_relabeled,
            )
        self._pending_dirty = set()
        diff = sim.stats.diff(snap)
        report.rounds_charged = diff.charged_by_label.get(DP_UPDATE_LABEL, 0)
        report.words_charged = diff.charged_words_by_label.get(DP_UPDATE_LABEL, 0)
        self.update_rounds += report.rounds_charged
        report.value = self.value
        report.seconds = clock.now() - t0
        self._observe_report(report)
        return report

    def _observe_report(self, report: UpdateReport) -> None:
        """Fold one batch's dirty-chain stats into the run's metrics.

        ``pruned`` counts re-solved clusters whose summary came out
        bit-identical — the chains the equality test stopped.
        """
        obs = self.obs
        if not obs.enabled:
            return
        m = obs.metrics
        m.counter(
            "repro_update_batches_total",
            mode="full" if report.full_resolve else "partial",
        ).inc()
        m.histogram("repro_update_seconds").observe(report.seconds)
        m.histogram("repro_update_batch_updates", DEFAULT_SIZE_BUCKETS).observe(
            report.updates
        )
        pruned = max(0, report.clusters_resolved - report.summaries_changed)
        m.counter("repro_update_clusters_total", stat="resolved").inc(
            report.clusters_resolved
        )
        m.counter("repro_update_clusters_total", stat="pruned").inc(pruned)
        m.counter("repro_update_clusters_total", stat="relabeled").inc(
            report.clusters_relabeled
        )
        self.engine.export_kernel_metrics(self.solver)

    def _partial_bottom_up(
        self, cids: Set[int], seeds: Optional[Set[ElementAt]], report: UpdateReport
    ) -> Set[int]:
        """Re-summarize the dirty chains of ``cids``; return the re-solved cids.

        ``seeds`` are the changed elements of ``cids``: with them, each layer
        batch names its dirty elements (the kernels re-solve their paths
        only) and a summary that comes out bit-identical ends its chain.
        ``None`` trusts no stored state: whole clusters, no pruning.
        """
        hc = self.hc
        index = self._seed_index()
        pending: Dict[int, Set[int]] = {}
        for cid in cids:
            pending.setdefault(hc.clusters[cid].layer, set()).add(cid)
        dirty: Dict[int, Set[int]] = {}
        for layer, e in seeds or ():
            dirty.setdefault(layer, set()).add(e)

        resolved: Set[int] = set()
        for layer in range(1, hc.num_layers + 1):
            layer_cids = pending.pop(layer, None)
            if not layer_cids:
                continue
            order = sorted(layer_cids)
            if self._fault_plan is not None:
                # Chaos hook: a matching plan entry raises InjectedFault here,
                # after payloads were written but before this layer's chains
                # re-solve — exactly the window the pending-dirty heal covers.
                self._fault_plan.check_site("update-layer")
            old = None
            narrowed = None
            if seeds is not None:
                old = {cid: self.summaries[cid] for cid in order}
                narrowed = {layer: np.fromiter(dirty.pop(layer, ()), dtype=np.int64)}
            # Rounds/words are charged on the simulator under "dp-update";
            # _resolve_batch reads the per-label diff back into the report.
            self.engine.summarize_clusters(
                self.solver, self.summaries, {layer: order}, label=DP_UPDATE_LABEL, dirty=narrowed
            )
            report.layers_resolved += 1
            resolved.update(order)
            for cid in order:
                if cid == hc.final_cluster_id:
                    report.summaries_changed += 1
                    continue
                if old is not None and summaries_equal(old[cid], self.summaries[cid]):
                    continue  # chain pruned: the parent's inputs are unchanged
                report.summaries_changed += 1
                up, e = index.absorber(cid)
                pending.setdefault(up, set()).add(int(index.parent_cluster[cid]))
                dirty.setdefault(up, set()).add(e)
        report.clusters_resolved = len(resolved)
        return resolved

    def _partial_top_down(self, resolved: Set[int], report: UpdateReport) -> None:
        hc = self.hc
        final_cid = hc.final_cluster_id

        if final_cid in resolved:
            ctx = self.engine.context(hc.final_cluster, self.summaries)
            new_root_label, new_value = self.solver.label_virtual_root(
                ctx, self.summaries[final_cid]
            )
            report.value_changed = not summaries_equal(new_value, self.value)
            report.root_label_changed = not summaries_equal(new_root_label, self.root_label)
            self.value = new_value
            self.root_label = new_root_label

        labels = self._labels
        if labels is None:
            return
        if report.root_label_changed:
            self.engine.write_root_label(self.solver, labels, self.root_label)
        relabel: Dict[int, Set[int]] = {}
        for cid in resolved:
            relabel.setdefault(hc.clusters[cid].layer, set()).add(cid)
        done = self.engine.label_clusters(
            self.solver, self.summaries, labels, relabel, label=DP_UPDATE_LABEL, track=True
        )
        report.clusters_relabeled = done.clusters
        report.edges_relabeled = done.edges
        report.layers_relabeled = done.layers

    # ------------------------------------------------------------------ #
    # Result views
    # ------------------------------------------------------------------ #

    def _label_views(self) -> Tuple[EdgeLabels, NodeLabels]:
        """Views of a frozen copy of the label array (of the degree-reduced tree).

        The one stale-state check behind every result view.
        """
        if self._pending_dirty:
            raise RuntimeError(
                "IncrementalSolver state is stale: a previous update batch "
                "failed after writing payloads.  Repair the offending payload "
                "and re-apply, or call refresh()."
            )
        reduced = self.engine.plan().label_keys()[0]
        return label_views(self._labels, self.solver.label_format(), reduced, copy=True)

    def solve_result(self) -> SolveResult:
        """The current solved state as a :class:`~repro.dp.engine.SolveResult`.

        The label mappings are read-only *snapshots*: results stay valid
        after further updates.  Raises when a failed update batch left the
        state stale.
        """
        edge_labels, node_labels = self._label_views()
        return SolveResult(
            value=self.value,
            root_label=self.root_label,
            edge_labels=edge_labels,
            node_labels=node_labels,
            output=self.solver.extract(self.hc.tree, edge_labels, self.root_label, self.value),
            summaries=dict(self.summaries),
            rounds=self.initial_stats.charged_rounds,
            layers=self.layers,
        )

    def as_pipeline_result(self) -> PipelineResult:
        """The current solved state, shaped exactly like ``solve()``'s result.

        Labels of the degree-reduced tree are projected back to original
        edges through the same index maps
        (:meth:`~repro.dp.kernels.plan.ClusteringPlan.label_keys`)
        :func:`~repro.core.pipeline.solve_on` uses, so a result obtained
        through any number of updates compares field by field against a
        from-scratch solve of the updated tree.  ``rounds["dp-update"]`` is
        this solver's own :attr:`update_rounds`, not the deployment's
        ``"dp-update"`` total, which a group's members share.
        """
        prepared = self.prepared
        res = self.solve_result()
        original = self.engine.plan().label_keys()[1]
        edge_labels, node_labels = res.edge_labels.over(original), res.node_labels.over(original)
        rounds = {
            "normalization": prepared.normalization_stats.total_rounds,
            "clustering": prepared.clustering_stats.total_rounds,
            "dp": self.initial_stats.total_rounds,
            "dp-update": self.update_rounds,
        }
        return PipelineResult(
            value=res.value,
            output=res.output,
            root_label=res.root_label,
            edge_labels=edge_labels,
            node_labels=node_labels,
            solve_result=res,
            prepared=prepared,
            rounds=rounds,
        )

    def view(self) -> SolvedView:
        """The current solved state as an immutable :class:`SolvedView`.

        The cheap snapshot primitive of the serving layer: the label array
        is copied once (one array copy, no per-label work) and frozen behind
        read-only mappings, so the view stays bit-stable under later updates
        and cannot be used to corrupt the solver.  Labels are projected to
        original edges like :meth:`as_pipeline_result`.  Raises like
        :meth:`solve_result` when a failed batch left the state stale.

        ``output`` is not extracted here but on its first read (see
        :class:`SolvedView`), from this version's un-projected label view,
        root label, value and the deployment's payload snapshot
        (:meth:`~repro.core.pipeline.PreparedTree.payload_snapshot`, one per
        batch, shared by every solver on the prepared tree).
        """
        edge_labels, node_labels = self._label_views()
        build_output = functools.partial(
            self.solver.extract,
            self.prepared.payload_snapshot(),
            edge_labels,
            self.root_label,
            self.value,
        )
        original = self.engine.plan().label_keys()[1]
        return SolvedView(
            problem=str(getattr(self.problem, "name", type(self.problem).__name__)),
            value=self.value,
            root_label=self.root_label,
            node_labels=node_labels.over(original),
            edge_labels=edge_labels.over(original),
            updates_applied=self.updates_applied,
            build_output=build_output,
        )


class IncrementalSolverGroup:
    """Several problems served incrementally over one shared prepared tree.

    The multi-problem serving mode (``solve_many``-style): each registered
    problem gets its own :class:`IncrementalSolver` — its own summaries,
    labels and kernel caches — but a batch of point updates is validated
    once, written to the shared tree once, and its dirty *seed* set (seed
    elements, payload-plan invalidation, child-scope expansion) is computed
    once for the whole group instead of once per problem.  Each member then
    re-solves only its own chains from those seeds; the summary-equality
    pruning stays per-problem, so a member whose rules ignore the touched
    payload stops its chain immediately.  A lone :class:`IncrementalSolver`
    runs its batches through the same writer as a group of one.

    Failure containment mirrors the single-problem heal path: if a member's
    resolve raises mid-batch, that member and every member the failure
    skipped get the batch's seeds folded into their pending-dirty set, so
    the next (repaired) batch heals them; members that already resolved are
    consistent and unaffected.

    Parameters are those of :class:`IncrementalSolver`; ``problems`` is a
    sequence of problem instances with unique ``name`` attributes.
    """

    def __init__(
        self,
        prepared: PreparedTree,
        problems: Sequence[Any],
        backend: Optional[str] = None,
        **solver_kwargs: Any,
    ):
        problems = list(problems)
        if not problems:
            raise ValueError("IncrementalSolverGroup needs at least one problem")
        names: List[str] = []
        for i, p in enumerate(problems):
            name = str(getattr(p, "name", f"problem-{i}"))
            if name in names:
                raise ValueError(
                    f"duplicate problem name {name!r} in the group; results are "
                    "keyed by name, so each registered problem needs a unique one"
                )
            names.append(name)
        self.prepared = prepared
        self.solvers: Dict[str, IncrementalSolver] = {
            name: IncrementalSolver(prepared, p, backend=backend, **solver_kwargs)
            for name, p in zip(names, problems)
        }
        self.updates_applied = 0

    @property
    def problems(self) -> Tuple[str, ...]:
        """The registered problem names, in registration order."""
        return tuple(self.solvers)

    def solver(self, problem: Optional[str] = None) -> IncrementalSolver:
        """The member solver for ``problem`` (defaults to a sole member)."""
        if problem is None:
            if len(self.solvers) != 1:
                raise ValueError(
                    f"group serves {len(self.solvers)} problems "
                    f"{self.problems!r}; name one"
                )
            return next(iter(self.solvers.values()))
        try:
            return self.solvers[problem]
        except KeyError:
            raise KeyError(
                f"unknown problem {problem!r}; registered: {self.problems!r}"
            ) from None

    def validate(self, updates: Sequence[PointUpdate]) -> None:
        """Raise on any unsupported update descriptor, writing nothing."""
        _validate(self.prepared, updates)

    def view(self, problem: Optional[str] = None) -> SolvedView:
        """Immutable snapshot of one member's solved state."""
        return self.solver(problem).view()

    def views(self) -> Dict[str, SolvedView]:
        """Immutable snapshots of every member, keyed by problem name."""
        return {name: s.view() for name, s in self.solvers.items()}

    def refresh(self) -> Dict[str, UpdateReport]:
        """Full re-solve of every member against the current payloads."""
        reports = _write_batch(tuple(self.solvers.values()), [], refresh=True)
        return dict(zip(self.solvers, reports))

    def apply_updates(self, updates: Sequence[PointUpdate]) -> Dict[str, UpdateReport]:
        """Apply one batch to every member; return per-problem reports.

        Validation, payload writes and payload-plan invalidation run once;
        only the per-problem chain re-solve is repeated.  Raises
        :class:`ConcurrentUpdateError` if any member has a batch mid-flight
        (all member guards are claimed for the duration, so a group batch
        and a direct member apply can never interleave).
        """
        updates = list(updates)
        reports = _write_batch(tuple(self.solvers.values()), updates)
        self.updates_applied += len(updates)
        return dict(zip(self.solvers, reports))


# --------------------------------------------------------------------------- #
# The batch writer
# --------------------------------------------------------------------------- #


def _validate(prepared: PreparedTree, updates: Sequence[PointUpdate]) -> None:
    """Raise on an unsupported update *before* any payload is written.

    The whole batch is validated up front so a bad descriptor can never
    leave the solver half-updated (payloads written, state not re-solved).
    """
    original = prepared.original_tree
    aux = prepared.reduction.aux_nodes
    for up in updates:
        if up.kind == "node":
            if up.target in aux:
                raise KeyError(
                    f"node {up.target!r} is an auxiliary degree-reduction node; only "
                    "original tree nodes can carry payloads"
                )
            if up.target not in original.parent:
                raise KeyError(f"node {up.target!r} is not a node of the prepared tree")
        elif up.kind == "edge":
            child, parent = up.target
            if child == original.root or original.parent.get(child) != parent:
                raise KeyError(
                    f"edge {up.target!r} is not a (child, parent) edge of the "
                    "prepared tree"
                )
        else:
            raise ValueError(
                f"unsupported update kind {up.kind!r}; supported kinds are "
                f"{UPDATE_KINDS} (structural changes require a new prepare())"
            )


def _set_payload(store: Dict[Any, Any], key: Any, data: Any) -> None:
    if data is None:
        store.pop(key, None)
    else:
        store[key] = data


def _write_payload(
    prepared: PreparedTree, index: SeedIndex, up: PointUpdate, want_children: bool
) -> Tuple[Set[ElementAt], Set[ElementAt]]:
    """Write one (validated) update's payload; return ``(seeds, child_seeds)``.

    The seeds are the elements whose tables read the payload.
    ``child_seeds`` is the extra dirty set for problems declaring
    ``update_scope = "node+children"`` (XML validation looks up the
    parent's tag while evaluating a child); it is only computed when
    ``want_children`` is set, and members whose problem does not read
    child-side payloads drop it.
    """
    hc = prepared.clustering
    reduced = prepared.tree
    original = prepared.original_tree
    child_seeds: Set[ElementAt] = set()
    if up.kind == "node":
        v = up.target
        _set_payload(original.node_data, v, up.data)
        _set_payload(reduced.node_data, v, up.data)
        hc.invalidate_payload_plans(nodes=[v])
        # Auxiliary nodes are transparent: a real child below an auxiliary
        # chain still reads the original parent's payload.  The children's
        # own cached inputs are unchanged; only their elements re-solve.
        if want_children:
            aux = prepared.reduction.aux_nodes
            stack = list(reduced.children(v))
            while stack:
                c = stack.pop()
                if c in aux:
                    stack.extend(reduced.children(c))
                else:
                    child_seeds.add(index.node(c))
        return {index.node(v)}, child_seeds
    child, parent = up.target
    # Degree reduction may have rerouted the edge through an auxiliary
    # parent; the payload lives on the reduced edge whose child endpoint is
    # the original child.
    red_edge = (child, reduced.parent[child])
    _set_payload(original.edge_data, (child, parent), up.data)
    _set_payload(reduced.edge_data, red_edge, up.data)
    hc.invalidate_payload_plans(edges=[red_edge])
    # Every element absorbing a child through the edge: at its internal
    # slot, and at the hole slot of each nested indegree-one cluster it
    # enters (the innermost applies its transition constraint).
    return set(index.edge(child)), child_seeds


def _write_batch(
    members: Sequence[IncrementalSolver], updates: Iterable[PointUpdate], refresh: bool = False
) -> List[UpdateReport]:
    """Apply one update batch to solvers sharing a prepared tree; one report each.

    The only writer of solved state: claims every member's apply guard,
    validates the whole batch, writes its payloads once, seeds each member
    (child seeds only for ``update_scope="node+children"`` problems) and
    re-solves the members in order.  ``refresh`` drops the whole payload
    cache and the members' value-keyed rule caches first, then re-solves
    every cluster.  If a member's resolve raises, it and every member after
    it keep the batch's seeds pending, so the next batch heals them.
    """
    updates = list(updates)
    acquired: List[IncrementalSolver] = []
    try:
        for m in members:
            m._begin_apply()
            acquired.append(m)
    except ConcurrentUpdateError:
        for m in acquired:
            m._end_apply()
        raise
    try:
        prepared = members[0].prepared
        _validate(prepared, updates)
        if refresh:
            prepared.clustering.invalidate_payload_plans()
            for m in members:
                dense = getattr(m.solver, "_dense", None)
                if dense is not None:
                    dense.tensors.clear_value_caches()
        index = members[0]._seed_index()
        want_children = any(m._wants_child_seeds() for m in members)
        base_seeds: Set[ElementAt] = set()
        child_seeds: Set[ElementAt] = set()
        for up in updates:
            base, children = _write_payload(prepared, index, up, want_children)
            base_seeds |= base
            child_seeds |= children

        def seeds_of(m: IncrementalSolver) -> Set[ElementAt]:
            return base_seeds | child_seeds if m._wants_child_seeds() else set(base_seeds)

        for m in members:
            m.updates_applied += len(updates)
        reports: List[UpdateReport] = []
        try:
            for m in members:
                reports.append(m._resolve_batch(seeds_of(m), len(updates), force_full=refresh))
        except BaseException:
            # The raising member's _resolve_batch left its own pending set;
            # the members the failure skipped never saw these seeds, so mark
            # them pending too — the next batch heals everyone.
            for m in members[len(reports):]:
                m._pending_dirty |= index.clusters(seeds_of(m))
            raise
        return reports
    finally:
        for m in acquired:
            m._end_apply()
