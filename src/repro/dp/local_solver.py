"""Generic per-cluster solver for finite-state DP problems.

This module turns any :class:`~repro.dp.problem.FiniteStateDP` description
into a :class:`~repro.dp.problem.ClusterDP` the engine can run:

* The summary of an **indegree-zero** cluster is a vector over the states of
  its top node: ``table[a]`` is the best (or total, for counting semirings)
  value of an assignment of the cluster's nodes in which the top node has
  state ``a``.
* The summary of an **indegree-one** cluster is a matrix ``table[(a, b)]``
  over (top-node state, below-node state): the contribution of the cluster's
  nodes when its top node has state ``a`` and the node below its incoming
  edge has state ``b``; the incoming edge's constraint is included in the
  matrix, the outgoing edge's is not (it is applied by the enclosing cluster
  when this cluster is absorbed as an element).

Because every original edge is internal to exactly one cluster, every edge
constraint and every node weight is counted exactly once; the tests verify
this against sequential and brute-force solvers.

Two interchangeable local computations implement the per-cluster solve:

* the **numpy backend** (:class:`~repro.dp.kernels.dense_local.DenseClusterKernel`)
  works on whole layer batches over the compiled layer plan
  (:mod:`repro.dp.kernels.plan`): tables and backpointers live in per-layer
  arrays, all hole states of an indegree-one cluster are carried at once,
  and both passes run as per-level stacked array programs; this is the
  default whenever the problem declares
  :attr:`~repro.dp.problem.FiniteStateDP.acc_states`
  and its semiring has a dense kernel;
* the **python backend** (this module) walks the element tree with
  dict-of-dicts tables and generator-based transitions — the fallback for
  exotic semirings or unbounded accumulator spaces (e.g. edge coloring's
  used-colour sets), and the executable reference the numpy backend is
  tested against (bit-identical values and labels).

Both backends iterate candidates in canonical state-id order, so results do
not depend on the backend choice.  Select explicitly with
``FiniteStateClusterSolver(problem, backend="numpy"|"python")`` or through
``MPCConfig.dp_backend`` / the pipeline's ``backend=`` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.clustering.model import Element
from repro.dp.kernels.dense_local import DenseClusterKernel
from repro.dp.kernels.labels import OBJECT_LABELS, LabelFormat
from repro.dp.kernels.plan import LayerBatch
from repro.dp.kernels.semiring_kernels import kernel_for
from repro.dp.problem import ClusterContext, ClusterDP, FiniteStateDP
from repro.dp.semiring import Semiring

__all__ = ["FiniteStateClusterSolver", "backend_ineligibility", "BACKENDS", "HOLE"]

#: Recognised backend choices.
BACKENDS = ("auto", "numpy", "python")

#: Sentinel for the hole pseudo-child (the subtree below the incoming edge).
HOLE: Element = ("hole", None)


def backend_ineligibility(problem: FiniteStateDP) -> Optional[str]:
    """Why ``problem`` cannot run on the numpy backend (``None`` if it can)."""
    if getattr(problem, "acc_states", None) is None:
        return "acc_states not declared (unbounded or exotic accumulator space)"
    if kernel_for(problem.semiring) is None:
        return f"semiring {problem.semiring.name!r} has no dense kernel"
    return None


@dataclass
class _NodeTrace:
    """Traceback information for a node element."""

    children: List[Tuple[Element, Any]]  # (child element or HOLE, EdgeInfo)
    # step_choices[j][acc_state] = (previous acc_state, child_state)
    step_choices: List[Dict[Hashable, Tuple[Hashable, Hashable]]] = field(default_factory=list)
    # finalize_choice[node_state] = acc_state
    finalize_choice: Dict[Hashable, Hashable] = field(default_factory=dict)


@dataclass
class _MatTrace:
    """Traceback information for an indegree-one sub-cluster element."""

    child: Element  # child element or HOLE
    choice: Dict[Hashable, Hashable] = field(default_factory=dict)  # top state -> below state


class FiniteStateClusterSolver(ClusterDP):
    """Adapter: :class:`FiniteStateDP` → :class:`ClusterDP`.

    Parameters
    ----------
    problem:
        The finite-state problem description.
    backend:
        ``"numpy"`` — dense vectorized kernels (raises :class:`ValueError`
        if the problem is not eligible); ``"python"`` — the scalar
        dict-table path; ``"auto"`` (default) — numpy when eligible, else
        python.
    """

    def __init__(self, problem: FiniteStateDP, backend: str = "auto"):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.problem = problem
        self.produces_labels = problem.semiring.selective
        why_not = backend_ineligibility(problem)
        if backend == "numpy" and why_not is not None:
            raise ValueError(f"{problem.name}: numpy backend unavailable — {why_not}")
        self.backend = "python" if backend == "python" or why_not is not None else "numpy"
        self._dense: Optional[DenseClusterKernel] = (
            DenseClusterKernel(problem) if self.backend == "numpy" else None
        )
        # Canonical iteration orders (shared tie-breaking with the dense path).
        self._state_order: Dict[Hashable, int] = {s: i for i, s in enumerate(problem.states)}
        acc_states = getattr(problem, "acc_states", None)
        self._acc_order: Optional[Dict[Hashable, int]] = (
            {a: i for i, a in enumerate(acc_states)} if acc_states is not None else None
        )

    # ------------------------------------------------------------------ #
    # ClusterDP interface
    # ------------------------------------------------------------------ #

    def summarize_layer(self, batch: LayerBatch) -> Tuple[List[Any], int]:
        if self._dense is not None:
            return self._dense.summarize_layer(batch)
        return super().summarize_layer(batch)

    def label_format(self) -> LabelFormat:
        if self._dense is not None:
            return self._dense.label_format
        return OBJECT_LABELS

    def label_layer(
        self, batch: LayerBatch, out_labels: Sequence[Any], in_labels: Sequence[Any]
    ) -> Tuple[Sequence[Any], int]:
        if not self.produces_labels:
            raise NotImplementedError(
                f"{self.problem.name} uses a non-selective semiring; "
                "only the root value is defined"
            )
        if self._dense is not None:
            return self._dense.label_layer(batch, out_labels, in_labels)
        return super().label_layer(batch, out_labels, in_labels)

    def _layer_only(self, what: str) -> NotImplementedError:
        return NotImplementedError(
            f"{self.problem.name}: the numpy backend solves whole layer batches "
            f"(summarize_layer/label_layer), not single clusters ({what})"
        )

    def summarize(self, ctx: ClusterContext) -> Any:
        if self._dense is not None:
            raise self._layer_only("summarize")
        sr = self.problem.semiring
        if ctx.is_indegree_one:
            table: Dict[Tuple[Hashable, Hashable], Any] = {}
            for b in self.problem.states:
                vec, _ = self._local_vector(ctx, hole_state=b)
                for a, val in vec.items():
                    if not sr.is_zero(val):
                        table[(a, b)] = val
            return {"kind": "mat", "table": table}
        vec, _ = self._local_vector(ctx, hole_state=None)
        return {"kind": "vec", "table": {a: v for a, v in vec.items() if not sr.is_zero(v)}}

    def label_virtual_root(self, ctx: ClusterContext, summary: Any) -> Tuple[Any, Any]:
        if self._dense is not None:
            return self._dense.label_virtual_root(summary)
        sr = self.problem.semiring
        table = summary["table"]
        if sr.selective:
            best_state, best_val = None, sr.zero
            for state in self.problem.states:
                if state not in table:
                    continue
                total = sr.times(table[state], self.problem.virtual_root_value(state))
                if sr.is_zero(total):
                    continue
                if best_state is None or sr.prefer(total, best_val):
                    best_state, best_val = state, total
            if best_state is None:
                raise ValueError(f"{self.problem.name}: no feasible solution exists")
            return best_state, best_val
        total = sr.zero
        for state in self.problem.states:
            if state not in table:
                continue
            total = sr.plus(total, sr.times(table[state], self.problem.virtual_root_value(state)))
        return None, total

    def assign_internal_labels(
        self, ctx: ClusterContext, out_label: Any, in_label: Any
    ) -> Dict[Element, Any]:
        if not self.produces_labels:
            raise NotImplementedError(
                f"{self.problem.name} uses a non-selective semiring; "
                "only the root value is defined"
            )
        if self._dense is not None:
            raise self._layer_only("assign_internal_labels")
        _, traces = self._local_vector(ctx, hole_state=in_label, record_trace=True)

        state_of: Dict[Element, Hashable] = {ctx.top_element: out_label}
        # Preorder: parents before children.
        stack = [ctx.top_element]
        while stack:
            e = stack.pop()
            s = state_of[e]
            trace = traces[e]
            if trace is None:
                continue  # leaf sub-cluster: no internal children here
            if isinstance(trace, _NodeTrace):
                acc_state = trace.finalize_choice.get(s)
                if acc_state is None:
                    raise RuntimeError(
                        f"inconsistent traceback: state {s!r} unreachable at element {e!r}"
                    )
                # Walk the children in reverse absorption order.
                for j in range(len(trace.children) - 1, -1, -1):
                    child_elem, _edge = trace.children[j]
                    prev_acc, child_state = trace.step_choices[j][acc_state]
                    if child_elem != HOLE:
                        state_of[child_elem] = child_state
                        stack.append(child_elem)
                    acc_state = prev_acc
            elif isinstance(trace, _MatTrace):
                if trace.child != HOLE:
                    below_state = trace.choice.get(s)
                    if below_state is None:
                        raise RuntimeError(
                            f"inconsistent traceback: state {s!r} unreachable at element {e!r}"
                        )
                    state_of[trace.child] = below_state
                    stack.append(trace.child)
            # indegree-zero sub-cluster elements are leaves: nothing to do.

        return {e: s for e, s in state_of.items() if e != ctx.top_element}

    def extract(self, tree, edge_labels, root_label, value):
        return self.problem.extract_solution(tree, edge_labels.node_dict(), value)

    # ------------------------------------------------------------------ #
    # Local (per-cluster) sequential DP — the python backend
    # ------------------------------------------------------------------ #

    def _ordered(self, table: Dict[Hashable, Any], order: Optional[Dict[Hashable, int]]):
        """Items of ``table`` in canonical state order (insertion order if none)."""
        if order is None or len(table) < 2:
            return table.items()
        fallback = len(order)
        return sorted(table.items(), key=lambda kv: order.get(kv[0], fallback))

    def _local_vector(
        self,
        ctx: ClusterContext,
        hole_state: Optional[Hashable],
        record_trace: bool = False,
    ) -> Tuple[Dict[Hashable, Any], Dict[Element, Any]]:
        """Vector over the top node's states, plus traceback data per element."""
        vectors: Dict[Element, Dict[Hashable, Any]] = {}
        traces: Dict[Element, Any] = {}

        hole_vector: Optional[Dict[Hashable, Any]] = None
        if hole_state is not None:
            hole_vector = {hole_state: self.problem.semiring.one}

        for e in ctx.element_postorder():
            kids = ctx.sorted_children_of(e)
            if e[0] == "node":
                vectors[e], traces[e] = self._solve_node_element(
                    ctx, e, kids, vectors, hole_vector
                )
            else:
                kind = ctx.element_kind(e)
                if kind == "indegree-1":
                    vectors[e], traces[e] = self._solve_indeg1_element(
                        ctx, e, kids, vectors, hole_vector
                    )
                else:  # indegree-0 (or, impossibly, final)
                    table = dict(ctx.summary_of(e)["table"])
                    vectors[e] = table
                    traces[e] = None  # leaf of the element tree: nothing to trace
                    if kids:
                        raise RuntimeError(
                            f"indegree-zero sub-cluster {e!r} unexpectedly has children"
                        )

        return vectors[ctx.top_element], traces

    def _solve_node_element(
        self,
        ctx: ClusterContext,
        e: Element,
        kids: List[Element],
        vectors: Dict[Element, Dict[Hashable, Any]],
        hole_vector: Optional[Dict[Hashable, Any]],
    ) -> Tuple[Dict[Hashable, Any], _NodeTrace]:
        sr = self.problem.semiring
        problem = self.problem
        v = e[1]
        inp = ctx.node_input(v)

        children: List[Tuple[Element, Any]] = [(c, ctx.edge_to_parent(c)) for c in kids]
        if ctx.hole_element == e and hole_vector is not None:
            children.append((HOLE, ctx.in_edge))

        trace = _NodeTrace(children=children)

        # Initial accumulator.
        acc: Dict[Hashable, Any] = {}
        for a_state, val in problem.node_init(inp):
            if sr.is_zero(val):
                continue
            self._merge(acc, a_state, val, None, sr)

        # Absorb children one at a time.
        for child_elem, edge in children:
            child_vec = hole_vector if child_elem == HOLE else vectors[child_elem]
            new_acc: Dict[Hashable, Any] = {}
            choices: Dict[Hashable, Tuple[Hashable, Hashable]] = {}
            for a_state, a_val in self._ordered(acc, self._acc_order):
                for c_state, c_val in self._ordered(child_vec, self._state_order):
                    if sr.is_zero(c_val):
                        continue
                    for n_state, t_val in problem.transition(inp, a_state, c_state, edge):
                        val = sr.times(a_val, sr.times(c_val, t_val))
                        if sr.is_zero(val):
                            continue
                        self._merge(new_acc, n_state, val, (choices, (a_state, c_state)), sr)
            acc = new_acc
            trace.step_choices.append(choices)
            if not acc:
                break

        # Finalize: accumulator -> node state vector.
        vec: Dict[Hashable, Any] = {}
        fin_choice: Dict[Hashable, Hashable] = {}
        for a_state, a_val in self._ordered(acc, self._acc_order):
            for n_state, f_val in problem.finalize(inp, a_state):
                val = sr.times(a_val, f_val)
                if sr.is_zero(val):
                    continue
                self._merge(vec, n_state, val, (fin_choice, a_state), sr)
        trace.finalize_choice = fin_choice
        return vec, trace

    def _solve_indeg1_element(
        self,
        ctx: ClusterContext,
        e: Element,
        kids: List[Element],
        vectors: Dict[Element, Dict[Hashable, Any]],
        hole_vector: Optional[Dict[Hashable, Any]],
    ) -> Tuple[Dict[Hashable, Any], _MatTrace]:
        sr = self.problem.semiring
        table = ctx.summary_of(e)["table"]

        if kids:
            if len(kids) != 1:
                raise RuntimeError(
                    f"indegree-one sub-cluster {e!r} must have exactly one child, got {kids}"
                )
            child = kids[0]
            below_vec = vectors[child]
        else:
            if ctx.hole_element != e or hole_vector is None:
                raise RuntimeError(
                    f"indegree-one sub-cluster {e!r} has no child and is not the hole element"
                )
            child = HOLE
            below_vec = hole_vector

        vec: Dict[Hashable, Any] = {}
        trace = _MatTrace(child=child)
        for (a, b), m_val in table.items():
            b_val = below_vec.get(b)
            if b_val is None or sr.is_zero(b_val):
                continue
            val = sr.times(m_val, b_val)
            if sr.is_zero(val):
                continue
            self._merge(vec, a, val, (trace.choice, b), sr)
        return vec, trace

    @staticmethod
    def _merge(
        table: Dict[Hashable, Any],
        key: Hashable,
        val: Any,
        choice: Optional[Tuple[Dict, Any]],
        sr: Semiring,
    ) -> None:
        """Insert ``val`` for ``key``: keep the best (selective) or accumulate."""
        if key not in table:
            table[key] = val
            if choice is not None:
                choice[0][key] = choice[1]
            return
        if sr.selective:
            if sr.prefer(val, table[key]):
                table[key] = val
                if choice is not None:
                    choice[0][key] = choice[1]
        else:
            table[key] = sr.plus(table[key], val)
