"""The DP engine: bottom-up and top-down passes over the clustering (Section 5).

Given a hierarchical clustering and a :class:`~repro.dp.problem.ClusterDP`,
the engine

1. fills in the dynamic programming tables layer by layer from the bottom
   (maintaining the bottom-up invariant of Definition 8, Fig. 2), and then
2. fills in the edge labels layer by layer from the top (maintaining the
   top-down invariant of Definition 9, Fig. 3).

Both passes take row selections of layers, so a full solve and the
incremental update path's partial passes run through the same two drivers
(:meth:`DPEngine.summarize_clusters`, :meth:`DPEngine.label_clusters`).
Labels live in one array per problem over the plan's node index
(:mod:`repro.dp.kernels.labels`); a cluster reads its boundary labels from
it through the layer plan's ``out_edge`` / ``in_edge`` indices, and the
root's entry holds the root label.

Per layer, the data movement in the MPC model is: sort the (cluster id,
element summary) records so every cluster's elements are co-located, run the
per-cluster sequential computation locally, and route the new summaries back
— a constant number of rounds.  The reproduction hands each layer to the
solver as one :class:`~repro.dp.kernels.plan.LayerBatch` over the
clustering's compiled layer plan (the per-cluster computations are local by
construction, so a whole layer is one batch) and charges
``ROUNDS_PER_LAYER`` rounds per layer and pass under the label ``"dp-pass"``,
so benchmarks can verify that the number of DP rounds depends only on the
number of layers (which is O(1)), not on ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Set

import numpy as np

from repro.clustering.degree_reduction import DegreeReductionResult
from repro.clustering.model import Cluster, HierarchicalClustering
from repro.dp.kernels.labels import EdgeLabels, NodeLabels, label_views
from repro.dp.kernels.plan import ClusteringPlan, LayerBatch, clustering_plan
from repro.dp.problem import ClusterContext, ClusterDP
from repro.mpc.simulator import MPCSimulator
from repro.obs import DEFAULT_SIZE_BUCKETS
from repro.obs.context import OBS_OFF

__all__ = [
    "DPEngine",
    "SolveResult",
    "Relabeled",
    "ROUNDS_PER_LAYER",
    "DP_PASS_LABEL",
    "DP_UPDATE_LABEL",
]

#: Rounds charged per layer and per pass: one sort to group every cluster's
#: elements onto one machine, one routing step to send the summaries/labels
#: back (Section 5.1/5.2).
ROUNDS_PER_LAYER = 2

#: Round/word label of the initial (full) solve's passes.
DP_PASS_LABEL = "dp-pass"
#: Round/word label of the incremental update path's partial passes — kept
#: separate so benchmarks can compare an update's cost against a full solve.
DP_UPDATE_LABEL = "dp-update"


@dataclass
class SolveResult:
    """Result of running one DP problem over a clustering.

    Attributes
    ----------
    value:
        The problem's objective value (optimal weight, count, root aggregate).
    root_label:
        Label of the virtual edge leaving the root (the root's state/value).
    edge_labels:
        Label of every tree edge ``(child, parent)``; the label of an edge is
        the output associated with its child endpoint (paper Definition 1).
        Empty when the problem cannot produce labels (non-selective semiring).
        A read-only :class:`~repro.dp.kernels.labels.EdgeLabels` mapping;
        copy it with ``dict(...)`` to mutate.
    node_labels:
        Label of every node = label of its outgoing edge (the root maps to
        ``root_label``): a read-only view of the same label array.
    output:
        Problem-specific extraction (e.g. the chosen independent set).
    summaries:
        Per-cluster DP tables f(C), keyed by cluster id (exposed for tests
        and for the word-size checks).
    rounds:
        Charged DP rounds (bottom-up plus top-down).
    layers:
        Number of layers processed.
    """

    value: Any
    root_label: Any
    edge_labels: EdgeLabels
    node_labels: NodeLabels
    output: Any
    summaries: Dict[int, Any]
    rounds: int
    layers: int


@dataclass
class Relabeled:
    """What one top-down pass (:meth:`DPEngine.label_clusters`) relabeled."""

    #: Clusters whose internal labels were re-derived.
    clusters: int = 0
    #: Edge labels that changed (counted only when the pass compares).
    edges: int = 0
    #: Layer batches processed; each is charged ``ROUNDS_PER_LAYER`` rounds.
    layers: int = 0


class DPEngine:
    """Runs :class:`ClusterDP` problems over a hierarchical clustering."""

    def __init__(
        self,
        clustering: HierarchicalClustering,
        reduction: DegreeReductionResult,
        sim: Optional[MPCSimulator] = None,
    ):
        self.hc = clustering
        #: The degree reduction the clustering was built on
        #: (``reduction.tree is clustering.tree``).
        self.reduction = reduction
        self.sim = sim
        #: The deployment's observability context (inert singleton when the
        #: engine runs simulator-less or obs is off).
        self.obs = sim.obs if sim is not None else OBS_OFF
        #: Who owns the engine's solvers: ``"solve"``, or ``"incremental"``
        #: for an :class:`~repro.dynamic.IncrementalSolver`'s engine.  An
        #: incremental engine never opens an exec-backend DP session: its
        #: long-lived solver's memo state (backpointer arrays, replayed
        #: states, rule-tensor caches) must be populated on the driver by the
        #: full solve, because every later point update re-reads it there.
        #: The kernel cache gauges are keyed by it.
        self.role = "solve"

    # ------------------------------------------------------------------ #

    def context(self, cluster: Cluster, summaries: Dict[int, Any]) -> ClusterContext:
        """A :class:`ClusterContext` for one cluster against ``summaries``."""
        return ClusterContext(cluster, summaries, self.hc.clusters, self.reduction)

    def plan(self) -> ClusteringPlan:
        """The clustering's compiled layer plans (compiled on the first solve)."""
        return clustering_plan(self.hc, self.reduction)

    def layer_batch(
        self,
        layer: int,
        cids: Optional[Iterable[int]],
        summaries: Mapping[int, Any],
        dirty: Optional[np.ndarray] = None,
    ) -> LayerBatch:
        """A :class:`LayerBatch` of ``cids`` (``None``: the whole layer)."""
        sizer = self.sim.word_size if self.sim is not None else None
        return self.plan().batch(layer, cids, summaries, sizer, dirty)

    def _charge(self, rounds: int, label: str = DP_PASS_LABEL) -> None:
        if self.sim is not None:
            self.sim.charge_rounds(rounds, label=label)

    def _charge_words(self, words: int, label: str = DP_PASS_LABEL) -> None:
        """Charge the routed volume of one layer's summaries or labels."""
        if self.sim is not None and words:
            self.sim.charge_words(words, label=label)

    # ------------------------------------------------------------------ #

    def _exec_session(self, problem: ClusterDP):
        """A DP execution session for one full solve, or ``None`` (inline).

        Only the full solve distributes its layer batches: the incremental
        update path re-solves small cluster subsets where pool round-trips
        cannot pay off, and its driver-side solver state (backpointer arrays) must
        stay authoritative.  The returned session, if any, must be closed.
        """
        if self.sim is None or self.role == "incremental":
            return None
        return self.sim.executor.dp_session(self.hc, problem, obs=self.obs)

    def summarize_clusters(
        self,
        problem: ClusterDP,
        summaries: Dict[int, Any],
        cids_by_layer: Mapping[int, Optional[Sequence[int]]],
        label: str = DP_PASS_LABEL,
        session=None,
        dirty: Optional[Mapping[int, np.ndarray]] = None,
    ) -> int:
        """Bottom-up pass over the given clusters only (``summaries`` updated).

        ``cids_by_layer`` maps layer index → ids of the clusters of that layer
        to (re-)summarize (``None``: the whole layer); every other cluster's
        entry in ``summaries`` is reused as-is, which is what makes the
        incremental update path's partial re-solve possible.  ``dirty``
        narrows it further: it maps a layer to the element indices of its
        listed clusters whose inputs changed, handed to the solver as
        :attr:`LayerBatch.dirty`, and a dense solver then re-solves only those
        elements and their ancestors (``None``, or a layer it does not list:
        whole clusters).  Layers are processed in ascending order and each
        touched layer is handed to the solver as one :class:`LayerBatch` (the
        engine's parallel unit), exactly like the full pass; rounds and the
        routed summary words are charged per listed layer under ``label``,
        whatever ``dirty`` narrows.  A listed layer with no clusters still
        charges its rounds (and zero words) — the full solve lists every
        layer, including the empty ones some trees produce, and its round
        count must stay identical to the top-down pass's and to previous
        releases.  Returns the number of rounds charged.

        ``session`` is an open exec-backend DP session (see
        :meth:`_exec_session`): when given, each layer batch is evaluated on
        the worker pool instead of the driver; the summaries land in
        ``summaries`` either way, so the round/word charging below is shared
        verbatim between the placements.
        """
        obs = self.obs
        charged = 0
        for layer in sorted(cids_by_layer):
            batch = self.layer_batch(
                layer, cids_by_layer[layer], summaries, None if dirty is None else dirty.get(layer)
            )
            with obs.trace(
                "dp.layer",
                dp_pass="bottom-up",
                layer=layer,
                clusters=len(batch),
                label=label,
            ):
                words = 0
                if len(batch):
                    if session is not None:
                        results, words = session.solve_layer(batch)
                    else:
                        results, words = problem.summarize_layer(batch)
                    summaries.update(zip(batch.cids, results))
                self._charge(ROUNDS_PER_LAYER, label)
                self._charge_words(words, label)
            if obs.enabled:
                obs.metrics.counter("repro_dp_layers_total", dp_pass="bottom-up").inc()
                obs.metrics.histogram(
                    "repro_dp_layer_batch_clusters",
                    DEFAULT_SIZE_BUCKETS,
                    dp_pass="bottom-up",
                ).observe(len(batch))
            charged += ROUNDS_PER_LAYER
        return charged

    def label_clusters(
        self,
        problem: ClusterDP,
        summaries: Mapping[int, Any],
        labels: np.ndarray,
        cids_by_layer: Mapping[int, Optional[Set[int]]],
        label: str = DP_PASS_LABEL,
        session=None,
        track: bool = False,
    ) -> Relabeled:
        """Top-down pass over the given clusters (``labels`` updated in place).

        ``labels`` is the problem's label array in its
        :meth:`~repro.dp.problem.ClusterDP.label_format`, with the root label
        at the root's entry; each listed cluster reads its boundary labels
        from it and writes its internal edges' labels back.
        ``cids_by_layer`` maps layer index → ids of the clusters to relabel
        (``None``: the whole layer).  Layers run top-down, one
        :class:`LayerBatch` each; a cluster's boundary labels are written by
        strictly higher layers, so each batch is independent.  Rounds and the
        routed label words are charged per listed layer under ``label``,
        empty layers included, as :meth:`summarize_clusters` does.

        With ``track`` (the update path) only labels that changed are
        written, and the clusters whose out-edge or in-edge is one of them
        (:meth:`~repro.dp.kernels.plan.SeedIndex.dependents`) are relabeled
        too, further down this same pass.  ``session`` is an open
        exec-backend DP session, as in :meth:`summarize_clusters`.
        """
        fmt = problem.label_format()
        obs = self.obs
        index = self.plan().seed_index() if track else None
        pending: Dict[int, Any] = dict(cids_by_layer)
        done = Relabeled()
        for layer in range(self.hc.num_layers, 0, -1):
            if layer not in pending:
                continue
            batch = self.layer_batch(layer, pending.pop(layer), summaries)
            with obs.trace(
                "dp.layer",
                dp_pass="top-down",
                layer=layer,
                clusters=len(batch),
                label=label,
            ):
                words = 0
                if len(batch):
                    lp = batch.layer
                    outs = labels[lp.out_edge[batch.rows]]
                    ins = fmt.gather(labels, lp.in_edge[batch.rows])
                    if session is not None:
                        new, words = session.label_layer(batch, outs, ins)
                    else:
                        new, words = problem.label_layer(batch, outs, ins)
                    new = fmt.pack(new)
                    edges = batch.edge_index
                    if index is not None:
                        moved = fmt.changed(labels[edges], new)
                        edges, new = edges[moved], new[moved]
                        for dep_layer, cid in index.dependents(edges).tolist():
                            pending.setdefault(dep_layer, set()).add(cid)
                        done.edges += len(edges)
                    labels[edges] = new
                    done.clusters += len(batch)
                self._charge(ROUNDS_PER_LAYER, label)
                self._charge_words(words, label)
            if obs.enabled:
                obs.metrics.counter("repro_dp_layers_total", dp_pass="top-down").inc()
                obs.metrics.histogram(
                    "repro_dp_layer_batch_clusters",
                    DEFAULT_SIZE_BUCKETS,
                    dp_pass="top-down",
                ).observe(len(batch))
            done.layers += 1
        return done

    def solve(self, problem: ClusterDP) -> SolveResult:
        """Run the bottom-up and top-down passes for ``problem``."""
        summaries: Dict[int, Any] = {}
        self.plan()  # compiled before an exec session ships the clustering
        session = self._exec_session(problem)
        try:
            return self._solve(problem, summaries, session)
        finally:
            if session is not None:
                session.close()
            if self.obs.enabled:
                self.export_kernel_metrics(problem)

    def export_kernel_metrics(self, problem: ClusterDP) -> None:
        """Publish the dense kernel's cache counters as labeled gauges.

        Pull-style: the kernel keeps its own plain-int counters (hits,
        misses, evictions, enumerations, recomposes, elements and calls of
        both passes) with zero obs overhead; this copies a consistent
        reading into the registry after a solve or an update batch, keyed by
        problem name and :attr:`role`, so an incremental solver's kernel and
        a from-scratch solve's kernel of the same problem keep separate
        series.  No-op for problems without a dense kernel.
        """
        dense = getattr(problem, "_dense", None)
        if dense is None:
            return
        name = getattr(getattr(dense, "problem", None), "name", "problem")
        gauge = self.obs.metrics.gauge
        for stat, value in dense.cache_stats().items():
            gauge("repro_kernel_cache", problem=name, role=self.role, stat=stat).set(value)

    def write_root_label(self, problem: ClusterDP, labels: np.ndarray, root_label: Any) -> None:
        """Store ``root_label`` at the root's entry of ``labels``, where the
        final cluster reads its (virtual) out-edge label."""
        plan = self.plan()
        labels[plan.node_index[self.hc.tree.root]] = problem.label_format().encode(root_label)

    def _solve(self, problem: ClusterDP, summaries: Dict[int, Any], session) -> SolveResult:
        hc = self.hc
        layers = dict.fromkeys(range(1, hc.num_layers + 1))

        # ---- bottom-up (Definition 8 / Figure 2) -------------------------- #
        # A layer's clusters are independent (they would be solved by
        # different machines in one round); they are handed to the solver as
        # one batch so vectorized solvers can share work across clusters.
        charged = self.summarize_clusters(problem, summaries, layers, session=session)

        final = hc.final_cluster
        ctx_final = self.context(final, summaries)
        root_label, value = problem.label_virtual_root(ctx_final, summaries[final.cid])

        # ---- top-down (Definition 9 / Figure 3) --------------------------- #
        # Inline each layer batch runs on the driver; under an exec session
        # it is labelled on the workers that summarised its clusters (their
        # backpointers are local).
        labels = None
        if problem.produces_labels:
            labels = problem.label_format().empty(len(self.plan().node_ids))
            self.write_root_label(problem, labels, root_label)
            done = self.label_clusters(problem, summaries, labels, layers, session=session)
            charged += done.layers * ROUNDS_PER_LAYER

        edge_labels, node_labels = label_views(
            labels, problem.label_format(), self.plan().label_keys()[0]
        )
        output = problem.extract(hc.tree, edge_labels, root_label, value)

        return SolveResult(
            value=value,
            root_label=root_label,
            edge_labels=edge_labels,
            node_labels=node_labels,
            output=output,
            summaries=summaries,
            rounds=charged,
            layers=hc.num_layers,
        )
