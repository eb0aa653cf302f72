"""The DP engine: bottom-up and top-down passes over the clustering (Section 5).

Given a hierarchical clustering and a :class:`~repro.dp.problem.ClusterDP`,
the engine

1. fills in the dynamic programming tables layer by layer from the bottom
   (maintaining the bottom-up invariant of Definition 8, Fig. 2), and then
2. fills in the edge labels layer by layer from the top (maintaining the
   top-down invariant of Definition 9, Fig. 3).

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
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.clustering.degree_reduction import DegreeReductionResult
from repro.clustering.model import Cluster, HierarchicalClustering
from repro.dp.kernels.plan import ClusteringPlan, LayerBatch, clustering_plan
from repro.dp.problem import ClusterContext, ClusterDP
from repro.mpc.simulator import MPCSimulator
from repro.obs import DEFAULT_SIZE_BUCKETS
from repro.obs.context import OBS_OFF

__all__ = ["DPEngine", "SolveResult", "ROUNDS_PER_LAYER", "DP_PASS_LABEL", "DP_UPDATE_LABEL"]

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
    node_labels:
        Convenience view: label of every node = label of its outgoing edge
        (the root maps to ``root_label``).
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
    edge_labels: Dict[Tuple[Hashable, Hashable], Any]
    node_labels: Dict[Hashable, Any]
    output: Any
    summaries: Dict[int, Any]
    rounds: int
    layers: int


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
        #: When False, :meth:`solve` never opens an exec-backend DP session
        #: (everything runs inline on the driver).  The incremental subsystem
        #: clears this: its long-lived solver's memo state (backpointer arrays,
        #: rule-tensor caches) must be populated on the driver by the full
        #: solve, because every subsequent point update re-reads it there.
        self.exec_enabled = True

    # ------------------------------------------------------------------ #

    def context(self, cluster: Cluster, summaries: Dict[int, Any]) -> ClusterContext:
        """A :class:`ClusterContext` for one cluster against ``summaries``."""
        return ClusterContext(cluster, summaries, self.hc.clusters, self.reduction)

    def plan(self) -> ClusteringPlan:
        """The clustering's compiled layer plans (compiled on the first solve)."""
        return clustering_plan(self.hc, self.reduction)

    def layer_batch(
        self, layer: int, cids: Optional[Iterable[int]], summaries: Mapping[int, Any]
    ) -> LayerBatch:
        """A :class:`LayerBatch` of ``cids`` (``None``: the whole layer)."""
        sizer = self.sim.word_size if self.sim is not None else None
        return self.plan().batch(layer, cids, summaries, sizer)

    def boundary_labels(
        self, batch: LayerBatch, edge_labels: Mapping[Any, Any], root_label: Any
    ) -> Tuple[List[Any], List[Any]]:
        """Out- and in-edge labels of the batch's clusters (``None``: no in-edge)."""
        clusters = self.hc.clusters
        final = self.hc.final_cluster_id
        outs: List[Any] = []
        ins: List[Any] = []
        for cid in batch.cids:
            c = clusters[cid]
            outs.append(root_label if cid == final else edge_labels[c.out_edge])
            ins.append(edge_labels[c.in_edge] if c.in_edge is not None else None)
        return outs, ins

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
        if self.sim is None or not self.exec_enabled:
            return None
        return self.sim.executor.dp_session(self.hc, problem, obs=self.obs)

    def summarize_clusters(
        self,
        problem: ClusterDP,
        summaries: Dict[int, Any],
        cids_by_layer: Mapping[int, Optional[Sequence[int]]],
        label: str = DP_PASS_LABEL,
        session=None,
    ) -> int:
        """Bottom-up pass over the given clusters only (``summaries`` updated).

        ``cids_by_layer`` maps layer index → ids of the clusters of that layer
        to (re-)summarize (``None``: the whole layer); every other cluster's
        entry in ``summaries`` is reused as-is, which is what makes the
        incremental update path's partial re-solve possible.  Layers are
        processed in ascending order and each touched layer is handed to the
        solver as one :class:`LayerBatch` (the engine's parallel unit),
        exactly like the full pass; rounds and the routed summary words are
        charged per listed layer under ``label``.  A listed layer with no
        clusters still charges its rounds (and zero words) — the full solve
        lists every layer, including the empty ones some trees produce, and
        its round count must stay identical to the top-down pass's and to
        previous releases.  Returns the number of rounds charged.

        ``session`` is an open exec-backend DP session (see
        :meth:`_exec_session`): when given, each layer batch is evaluated on
        the worker pool instead of the driver; the summaries land in
        ``summaries`` either way, so the round/word charging below is shared
        verbatim between the placements.
        """
        obs = self.obs
        charged = 0
        for layer in sorted(cids_by_layer):
            batch = self.layer_batch(layer, cids_by_layer[layer], summaries)
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
        misses, evictions, enumerations, recomposes) with zero obs overhead;
        this copies a consistent reading into the registry after a solve or
        an update batch.  No-op for problems without a dense kernel.
        """
        dense = getattr(problem, "_dense", None)
        if dense is None:
            return
        name = getattr(getattr(dense, "problem", None), "name", "problem")
        gauge = self.obs.metrics.gauge
        for stat, value in dense.cache_stats().items():
            gauge("repro_kernel_cache", problem=name, stat=stat).set(value)

    def _solve(self, problem: ClusterDP, summaries: Dict[int, Any], session) -> SolveResult:
        hc = self.hc

        # ---- bottom-up (Definition 8 / Figure 2) -------------------------- #
        # A layer's clusters are independent (they would be solved by
        # different machines in one round); they are handed to the solver as
        # one batch so vectorized solvers can share work across clusters.
        charged = self.summarize_clusters(
            problem,
            summaries,
            dict.fromkeys(range(1, hc.num_layers + 1)),
            session=session,
        )

        final = hc.final_cluster
        ctx_final = self.context(final, summaries)
        root_label, value = problem.label_virtual_root(ctx_final, summaries[final.cid])

        edge_labels: Dict[Tuple[Hashable, Hashable], Any] = {}
        node_labels: Dict[Hashable, Any] = {}

        # ---- top-down (Definition 9 / Figure 3) --------------------------- #
        if problem.produces_labels:
            # The virtual root edge is labeled first.  A cluster's boundary
            # labels are written by strictly higher layers, so each layer is
            # one independent batch — inline it runs on the driver; under an
            # exec session the batch is labelled on the workers that
            # summarised the clusters (their backpointers are local).
            obs = self.obs
            for layer in range(hc.num_layers, 0, -1):
                batch = self.layer_batch(layer, None, summaries)
                with obs.trace(
                    "dp.layer",
                    dp_pass="top-down",
                    layer=layer,
                    clusters=len(batch),
                    label=DP_PASS_LABEL,
                ):
                    words = 0
                    if len(batch):
                        outs, ins = self.boundary_labels(batch, edge_labels, root_label)
                        if session is not None:
                            labels, words = session.label_layer(batch, outs, ins)
                        else:
                            labels, words = problem.label_layer(batch, outs, ins)
                        edge_labels.update(zip(batch.edges, labels))
                    self._charge(ROUNDS_PER_LAYER)
                    self._charge_words(words)
                if obs.enabled:
                    obs.metrics.counter(
                        "repro_dp_layers_total", dp_pass="top-down"
                    ).inc()
                    obs.metrics.histogram(
                        "repro_dp_layer_batch_clusters",
                        DEFAULT_SIZE_BUCKETS,
                        dp_pass="top-down",
                    ).observe(len(batch))
                charged += ROUNDS_PER_LAYER

            for (child, _parent), lab in edge_labels.items():
                node_labels[child] = lab
            node_labels[hc.tree.root] = root_label

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
