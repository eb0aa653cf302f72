"""End-to-end pipeline: representation → clustering → DP (paper Section 1.4).

The three steps are deliberately decoupled:

1. :func:`normalize` — turn any supported representation into the standard
   rooted edge list (O(log D) rounds; O(1) for already-rooted forms).
2. :func:`prepare` — degree-reduce if necessary and build the hierarchical
   clustering (O(log D) rounds).  The result is a :class:`PreparedTree` that
   can be reused for any number of problems.
3. :func:`solve` / :func:`solve_many` — run one or several DP problems over
   the prepared clustering (O(1) rounds per layer, i.e. O(1) overall).

Every result carries the simulator's round statistics broken down by phase so
the benchmarks can regenerate the paper's round-complexity claims.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Mapping, Optional, Sequence, Tuple, Union

from repro.clustering.builder import build_hierarchical_clustering
from repro.clustering.degree_reduction import DegreeReductionResult, reduce_degrees
from repro.clustering.model import HierarchicalClustering
from repro.dp.accumulation import (
    DownwardAccumulationDP,
    DownwardAccumulationSolver,
    UpwardAccumulationDP,
    UpwardAccumulationSolver,
)
from repro.dp.engine import DPEngine, SolveResult
from repro.dp.local_solver import FiniteStateClusterSolver, backend_ineligibility
from repro.dp.problem import ClusterDP, FiniteStateDP
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator, RoundStats
from repro.obs import clock
from repro.representations.normalize import normalize_to_rooted_tree
from repro.trees.properties import max_degree
from repro.trees.tree import RootedTree

__all__ = [
    "PipelineResult",
    "PreparedTree",
    "prepare",
    "solve",
    "solve_many",
    "solve_incremental",
    "as_cluster_dp",
]

AnyProblem = Union[ClusterDP, FiniteStateDP, UpwardAccumulationDP, DownwardAccumulationDP]


def as_cluster_dp(problem: AnyProblem, backend: str = "auto") -> ClusterDP:
    """Wrap any supported problem description into a :class:`ClusterDP`.

    ``backend`` selects the finite-state local-solve implementation
    (``"auto"``, ``"numpy"`` or ``"python"``; see :mod:`repro.dp.kernels`)
    and is ignored for problems that are not :class:`FiniteStateDP`.
    """
    if isinstance(problem, ClusterDP):
        return problem
    if isinstance(problem, FiniteStateDP):
        return FiniteStateClusterSolver(problem, backend=backend)
    if isinstance(problem, UpwardAccumulationDP):
        return UpwardAccumulationSolver(problem)
    if isinstance(problem, DownwardAccumulationDP):
        return DownwardAccumulationSolver(problem)
    raise TypeError(f"unsupported problem type: {type(problem).__name__}")


@dataclass
class PreparedTree:
    """A tree together with its (reusable) hierarchical clustering.

    Produced by :func:`prepare`; consumed by :func:`solve_on`,
    :func:`solve_many` and :meth:`incremental`.  The clustering is
    immutable and reusable for any number of solves.

    Attributes
    ----------
    sim:
        The deployment everything was (and will be) accounted on.
    original_tree:
        The normalized input tree, before degree reduction.
    reduction:
        The degree-reduction result (auxiliary nodes, edge kinds, and the
        projection back to original edges).  Identity when no node exceeded
        the light threshold.
    clustering:
        The hierarchical clustering of the (reduced) tree — paper §4.2.
    normalization_stats, clustering_stats:
        Round statistics of the two distributed preparation phases.
    timings:
        Wall-clock seconds per phase (``"normalize"``,
        ``"degree_reduction"``, ``"clustering"``) — the benchmark harness
        reports them (see ``benchmarks/bench_pipeline.py``).
    """

    sim: MPCSimulator
    original_tree: RootedTree
    reduction: DegreeReductionResult
    clustering: HierarchicalClustering
    normalization_stats: RoundStats
    clustering_stats: RoundStats
    #: Wall-clock seconds per preparation phase ("normalize",
    #: "degree_reduction", "clustering") — the benchmark harness reports them
    #: (see benchmarks/bench_pipeline.py).
    timings: Dict[str, float] = field(default_factory=dict)
    # (payload epoch, payload snapshot of the reduced tree at that epoch).
    _payload_snapshot: Optional[Tuple[int, RootedTree]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def tree(self) -> RootedTree:
        """The degree-reduced tree the clustering was built for."""
        return self.clustering.tree

    def payload_snapshot(self) -> RootedTree:
        """The reduced tree with its payloads as of now, copied once per epoch.

        A :meth:`~repro.trees.tree.RootedTree.payload_snapshot` (two
        payload dict copies over the shared structure), keyed by the
        clustering's ``payload_epoch``, which every payload write advances.
        Every solver on this deployment shares it, so an update batch costs
        one copy however many problems read it.  Deferred
        :class:`~repro.dynamic.SolvedView` outputs read it, because some
        extracts read payloads (``DownwardAccumulationSolver.extract`` reads
        ``node_data``).
        """
        epoch = self.clustering.payload_epoch
        latest = self._payload_snapshot
        if latest is None or latest[0] != epoch:
            latest = (epoch, self.tree.payload_snapshot())
            self._payload_snapshot = latest
        return latest[1]

    def engine(self) -> DPEngine:
        return DPEngine(self.clustering, self.reduction, sim=self.sim)

    def incremental(self, problem: AnyProblem, backend: Optional[str] = None, **kwargs):
        """Solve ``problem`` once and return an update-accepting solver.

        The returned :class:`~repro.dynamic.IncrementalSolver` keeps the
        solved per-cluster state alive and applies batched point updates
        (node/edge payload edits) by re-running only the dirty cluster
        chain — see :mod:`repro.dynamic.incremental`.
        """
        from repro.dynamic import IncrementalSolver

        return IncrementalSolver(self, problem, backend=backend, **kwargs)

    def incremental_many(self, problems: Any, backend: Optional[str] = None, **kwargs):
        """Solve a batch of problems and return a group incremental solver.

        The returned :class:`~repro.dynamic.IncrementalSolverGroup` keeps
        per-problem solved state but validates, writes and seeds each update
        batch *once* for the whole group (shared dirty-chain computation) —
        the multi-problem serving mode.
        """
        from repro.dynamic import IncrementalSolverGroup

        return IncrementalSolverGroup(self, problems, backend=backend, **kwargs)

    def serve(self, problems: Any, backend: Optional[str] = None, **kwargs):
        """An asyncio server over this prepared tree (see :mod:`repro.serving`).

        ``problems`` is one problem or a sequence; extra keyword arguments
        are :class:`~repro.serving.TreeServer` parameters (``config=``,
        ``fault_plan=``...).  The constructor runs the initial solves; call
        :meth:`~repro.serving.TreeServer.start` (or enter it as an async
        context manager) to begin accepting traffic.
        """
        from repro.serving import TreeServer

        return TreeServer(self, problems, backend=backend, **kwargs)

    def exec_health(self) -> Optional[Dict[str, Any]]:
        """Supervision report of this deployment's exec backend, if any.

        ``None`` under the inline backend (there is nothing to supervise).
        Under ``exec_backend="process"`` this is the pool's cumulative
        :meth:`~repro.mpc.exec.faults.ExecHealth.as_dict` snapshot —
        retries, pool rebuilds, inline fallbacks and per-event detail for
        everything executed on this deployment so far.
        """
        health = getattr(self.sim.executor, "health", None)
        return None if health is None else health.as_dict()

    def trace(self) -> list:
        """Spans recorded on this deployment so far (``obs="trace"`` only).

        Span dicts in completion order (children before parents); the
        companion round timeline is ``self.sim.obs.timeline``, and
        ``self.sim.obs.trace_lines()`` renders both as a JSON-lines trace.
        """
        return self.sim.obs.recorder.to_list()

    def metrics(self, format: str = "json") -> Any:
        """Metric exposition of this deployment (``obs`` enabled modes).

        ``format="json"`` returns the plain-data exposition,
        ``format="prometheus"`` the text format; empty under ``obs="off"``.
        """
        if format == "prometheus":
            return self.sim.obs.metrics.to_prometheus()
        if format == "json":
            return self.sim.obs.metrics.to_json()
        raise ValueError(f"format must be 'json' or 'prometheus', got {format!r}")


@dataclass
class PipelineResult:
    """Everything :func:`solve` returns for one problem.

    ``edge_labels`` and ``node_labels`` are on the *original* tree (the
    degree reduction's auxiliary nodes projected away): read-only mappings
    over the solve's label array (:mod:`repro.dp.kernels.labels`).  Copy
    one with ``dict(...)`` to mutate it.
    """

    value: Any
    output: Any
    root_label: Any
    edge_labels: Mapping[Tuple[Hashable, Hashable], Any]
    node_labels: Mapping[Hashable, Any]
    solve_result: SolveResult
    prepared: PreparedTree
    rounds: Dict[str, int] = field(default_factory=dict)
    #: Exec-backend supervision snapshot taken right after the solve
    #: (``PreparedTree.exec_health()``); ``None`` under the inline backend.
    exec_health: Optional[Dict[str, Any]] = None

    @property
    def total_rounds(self) -> int:
        return sum(self.rounds.values())

    def trace(self) -> list:
        """Spans of the deployment this result was solved on."""
        return self.prepared.trace()

    def metrics(self, format: str = "json") -> Any:
        """Metric exposition of the deployment this result was solved on."""
        return self.prepared.metrics(format=format)


# --------------------------------------------------------------------------- #
# Steps
# --------------------------------------------------------------------------- #


def prepare(
    tree_or_representation: Any,
    delta: float = 0.5,
    root: Optional[Hashable] = None,
    capacity_factor: float = 4.0,
    degree_reduction: bool = True,
    sim: Optional[MPCSimulator] = None,
    light_threshold: Optional[int] = None,
    backend: Optional[str] = None,
) -> PreparedTree:
    """Normalise the input and build the reusable hierarchical clustering.

    This is the O(log D)-round half of the pipeline (paper §3 + §4.2):
    normalization, degree reduction and the hierarchical clustering.  The
    result is reusable for any number of :func:`solve_on` /
    :meth:`PreparedTree.incremental` calls.

    Parameters
    ----------
    tree_or_representation:
        A :class:`~repro.trees.tree.RootedTree` or any representation
        :func:`~repro.representations.normalize.normalize_to_rooted_tree`
        accepts (edge list, parent array, parenthesis string, traversal
        pair, ...).
    delta:
        Memory exponent of the auto-built deployment (ignored when ``sim``
        is given).  See :class:`~repro.mpc.config.MPCConfig`.
    root:
        Root hint for representations that need one.
    capacity_factor:
        Machine-capacity constant of the auto-built deployment.
    degree_reduction:
        When ``True`` (default), split nodes whose degree exceeds the light
        threshold with auxiliary chains before clustering.
    sim:
        An existing :class:`~repro.mpc.simulator.MPCSimulator` to run on
        (its :class:`~repro.mpc.config.MPCConfig` then controls every knob,
        including ``exec_backend``).  Mutually exclusive with ``backend``.
    light_threshold:
        Override of the n^(delta/2) light/heavy threshold.
    backend:
        Default finite-state DP backend of the auto-built deployment
        (``"auto"``/``"numpy"``/``"python"``).

    Returns
    -------
    PreparedTree
        The tree, its degree reduction, the clustering, and the per-phase
        round statistics and wall-clock timings.
    """
    if sim is not None and backend is not None:
        raise ValueError(
            "prepare() received both an explicit sim and a backend; set "
            "dp_backend on the sim's MPCConfig instead"
        )
    if sim is None:
        # Size the deployment by a first estimate of n; representations that
        # are not RootedTree know their own length.
        n_hint = _size_hint(tree_or_representation)
        config = MPCConfig(
            n=max(4, n_hint),
            delta=delta,
            capacity_factor=capacity_factor,
            dp_backend=backend or "auto",
        )
        sim = MPCSimulator(config)

    obs = sim.obs
    with obs.trace("prepare", n=sim.config.n):
        snap0 = sim.snapshot()
        t0 = clock.now()
        with obs.trace("prepare.normalize"):
            tree = normalize_to_rooted_tree(sim, tree_or_representation, root=root)
        t1 = clock.now()
        norm_stats = sim.stats.diff(snap0)

        threshold = light_threshold or sim.config.light_threshold()
        with obs.trace("prepare.degree_reduction", threshold=threshold):
            if degree_reduction and max_degree(tree) > threshold:
                reduction = reduce_degrees(tree, threshold=threshold)
            else:
                reduction = reduce_degrees(
                    tree, threshold=max(threshold, max_degree(tree) + 1)
                )
        t2 = clock.now()

        snap1 = sim.snapshot()
        with obs.trace("prepare.clustering"):
            clustering = build_hierarchical_clustering(
                sim,
                reduction.tree,
                light_threshold=threshold if degree_reduction else None,
            )
        cluster_stats = sim.stats.diff(snap1)
        t3 = clock.now()
    if obs.enabled:
        phases = obs.metrics
        phases.gauge("repro_prepare_phase_seconds", phase="normalize").set(t1 - t0)
        phases.gauge("repro_prepare_phase_seconds", phase="degree_reduction").set(
            t2 - t1
        )
        phases.gauge("repro_prepare_phase_seconds", phase="clustering").set(t3 - t2)

    return PreparedTree(
        sim=sim,
        original_tree=tree,
        reduction=reduction,
        clustering=clustering,
        normalization_stats=norm_stats,
        clustering_stats=cluster_stats,
        timings={
            "normalize": t1 - t0,
            "degree_reduction": t2 - t1,
            "clustering": t3 - t2,
        },
    )


def solve_on(
    prepared: PreparedTree, problem: AnyProblem, backend: Optional[str] = None
) -> PipelineResult:
    """Solve one DP problem on an already prepared tree (O(1) rounds/layer).

    ``backend`` overrides the deployment's default finite-state backend
    (``prepared.sim.config.dp_backend``) for this solve only.
    """
    solver = as_cluster_dp(problem, backend=backend or prepared.sim.config.dp_backend)
    obs = prepared.sim.obs
    snap = prepared.sim.snapshot()
    engine = prepared.engine()
    with obs.trace("solve", problem=getattr(problem, "name", type(problem).__name__)):
        res = engine.solve(solver)
    dp_stats = prepared.sim.stats.diff(snap)
    if obs.enabled:
        obs.dump(tag="solve")

    # The same label array, keyed by the original tree's nodes and edges.
    original = engine.plan().label_keys()[1]
    edge_labels, node_labels = res.edge_labels.over(original), res.node_labels.over(original)
    rounds = {
        "normalization": prepared.normalization_stats.total_rounds,
        "clustering": prepared.clustering_stats.total_rounds,
        "dp": dp_stats.total_rounds,
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
        exec_health=prepared.exec_health(),
    )


def solve(
    tree_or_representation: Any,
    problem: AnyProblem,
    delta: float = 0.5,
    root: Optional[Hashable] = None,
    capacity_factor: float = 4.0,
    degree_reduction: bool = True,
    light_threshold: Optional[int] = None,
    backend: Optional[str] = None,
) -> PipelineResult:
    """One-shot convenience API: prepare the tree and solve one problem.

    Equivalent to ``solve_on(prepare(...), problem)``; see :func:`prepare`
    for the shared parameters.  Use :func:`prepare` + :func:`solve_on` (or
    :func:`solve_many`) when solving several problems on one tree: the
    clustering and its compiled layer plans are reused.

    Parameters
    ----------
    tree_or_representation:
        See :func:`prepare`.
    problem:
        Any supported problem description (:class:`~repro.dp.problem.ClusterDP`,
        :class:`~repro.dp.problem.FiniteStateDP`, or an accumulation DP).
    backend:
        Finite-state backend for both preparation default and this solve.

    Returns
    -------
    PipelineResult
        Objective value, labels, problem-specific output, and per-phase
        round statistics (``result.rounds``/``result.total_rounds``).
    """
    prepared = prepare(
        tree_or_representation,
        delta=delta,
        root=root,
        capacity_factor=capacity_factor,
        degree_reduction=degree_reduction,
        light_threshold=light_threshold,
        backend=backend,
    )
    return solve_on(prepared, problem, backend=backend)


def solve_incremental(
    tree_or_representation: Any,
    problem: AnyProblem,
    delta: float = 0.5,
    root: Optional[Hashable] = None,
    capacity_factor: float = 4.0,
    degree_reduction: bool = True,
    light_threshold: Optional[int] = None,
    backend: Optional[str] = None,
    **kwargs,
):
    """Prepare, solve once, and return an update-accepting incremental solver.

    The serving-path convenience mirror of :func:`solve`: the returned
    :class:`~repro.dynamic.IncrementalSolver` exposes the solved state
    (``value``, labels, :meth:`~repro.dynamic.IncrementalSolver.as_pipeline_result`)
    and accepts batched point updates without re-clustering.

    Parameters
    ----------
    tree_or_representation, delta, root, capacity_factor, degree_reduction, \
light_threshold, backend:
        See :func:`prepare`.
    problem:
        The problem to keep solved under updates.
    **kwargs:
        Forwarded to :class:`~repro.dynamic.IncrementalSolver` (e.g.
        ``full_resolve_threshold``).

    Returns
    -------
    IncrementalSolver
        Already holding the initial full solve; apply updates with
        :meth:`~repro.dynamic.IncrementalSolver.apply_updates`.
    """
    prepared = prepare(
        tree_or_representation,
        delta=delta,
        root=root,
        capacity_factor=capacity_factor,
        degree_reduction=degree_reduction,
        light_threshold=light_threshold,
        backend=backend,
    )
    return prepared.incremental(problem, backend=backend, **kwargs)


def solve_many(
    tree_or_representation: Any,
    problems: Sequence[AnyProblem],
    delta: float = 0.5,
    root: Optional[Hashable] = None,
    degree_reduction: bool = True,
    backend: Optional[str] = None,
) -> Dict[str, PipelineResult]:
    """Solve several problems while reusing one clustering (paper §1.4).

    Beyond sharing the clustering, repeated solves share its compiled layer
    plans (:mod:`repro.dp.kernels.plan`): the first solve compiles every
    layer's element trees, absorption order, heights and hole paths into
    arrays cached on the
    :class:`~repro.clustering.model.HierarchicalClustering`, and every
    later problem (and both DP passes) reuses them.

    The whole batch is validated up front — unsupported problem types raise
    *before* any solve runs, rather than crashing mid-batch with part of the
    work done.  A batch-wide ``backend="numpy"`` request is validated per
    problem: a problem that cannot run on the dense backend (no
    ``acc_states``, exotic semiring) falls back to the scalar backend for
    that problem only, with a :class:`RuntimeWarning`, instead of aborting
    the batch.  The compiled plans are problem- and backend-independent, so
    the fallback never mixes plan state between the two paths.

    Parameters
    ----------
    tree_or_representation, delta, root, degree_reduction, backend:
        See :func:`prepare`.
    problems:
        The problems to solve, in order.

    Returns
    -------
    dict
        ``problem.name`` (or type name) -> :class:`PipelineResult`.  A
        duplicate name overwrites the earlier entry, with a warning.
    """
    problems = list(problems)
    supported = (ClusterDP, FiniteStateDP, UpwardAccumulationDP, DownwardAccumulationDP)
    bad = [type(p).__name__ for p in problems if not isinstance(p, supported)]
    if bad:
        raise TypeError(f"solve_many: unsupported problem type(s): {', '.join(bad)}")

    prepared = prepare(
        tree_or_representation,
        delta=delta,
        root=root,
        degree_reduction=degree_reduction,
        backend=backend,
    )
    out: Dict[str, PipelineResult] = {}
    for problem in problems:
        name = getattr(problem, "name", type(problem).__name__)
        problem_backend = backend
        if backend == "numpy" and isinstance(problem, FiniteStateDP):
            why_not = backend_ineligibility(problem)
            if why_not is not None:
                warnings.warn(
                    f"solve_many: {name} cannot use the numpy backend ({why_not}); "
                    "falling back to the scalar backend for this problem",
                    RuntimeWarning,
                    stacklevel=2,
                )
                problem_backend = "python"
        if name in out:
            warnings.warn(
                f"solve_many: duplicate problem name {name!r} — the earlier "
                "result is overwritten",
                RuntimeWarning,
                stacklevel=2,
            )
        out[name] = solve_on(prepared, problem, backend=problem_backend)
    return out


def _size_hint(rep: Any) -> int:
    if isinstance(rep, RootedTree):
        return rep.num_nodes
    if hasattr(rep, "edges"):
        return len(rep.edges) + 1
    if hasattr(rep, "text"):
        return max(1, len(rep.text) // 2)
    if hasattr(rep, "parents"):
        return len(rep.parents)
    return 1024
