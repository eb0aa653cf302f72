"""Upward and downward accumulation problems (paper Table 1 and Section 6.3).

Many of the paper's applications are *accumulations*: a value is computed for
every node from its children (upward — subtree sums/min/max, arithmetic
expression evaluation, XML structure checks, tree median) or from its parent
(downward — depths, root-to-node prefix sums, the DFS/BFS timestamp
computations of Section 6.3).

For such problems the O(1)-word cluster summary required by Definition 1 is a
**function**: an indegree-one cluster is summarised by the function mapping
the value entering through its open boundary to the value it delivers at the
other boundary, and these functions must come from an algebra that is closed
under composition and representable in O(1) words (affine maps for sums,
clamp/cap maps for min/max and the tree median of Lemma 10/11, Boolean maps
for validation).  Concrete problems supply the algebra by implementing the
abstract hooks below; the generic solvers do the per-cluster work.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.clustering.model import Element
from repro.dp.problem import ClusterContext, ClusterDP, EdgeInfo, NodeInput

__all__ = [
    "UpwardAccumulationDP",
    "UpwardAccumulationSolver",
    "DownwardAccumulationDP",
    "DownwardAccumulationSolver",
]


# --------------------------------------------------------------------------- #
# Upward accumulation
# --------------------------------------------------------------------------- #


class UpwardAccumulationDP(abc.ABC):
    """A problem where every node's value is determined by its children's values.

    The edge label produced for an edge ``(u, p)`` is the value computed at
    ``u`` (e.g. the aggregate of ``u``'s subtree); the problem's objective is
    the value at the root.
    """

    name: str = "upward-accumulation"

    @abc.abstractmethod
    def value_of(self, v: NodeInput, child_values: List[Any]) -> Any:
        """Value of node ``v`` given the values of all its children (possibly none)."""

    @abc.abstractmethod
    def partial_function(self, v: NodeInput, known_child_values: List[Any]) -> Any:
        """Value of ``v`` as an O(1)-word function of one unknown child value.

        ``known_child_values`` are the values of the *other* children.
        """

    @abc.abstractmethod
    def apply(self, fn: Any, x: Any) -> Any:
        """Evaluate a function of the algebra."""

    @abc.abstractmethod
    def compose(self, outer: Any, inner: Any) -> Any:
        """The function ``x -> outer(inner(x))`` (must stay O(1) words)."""

    def extract_solution(self, tree, node_values: Dict[Hashable, Any], root_value: Any) -> Any:
        return {"node_values": node_values, "root_value": root_value}


class UpwardAccumulationSolver(ClusterDP):
    """Generic :class:`ClusterDP` for upward accumulations."""

    produces_labels = True

    def __init__(self, problem: UpwardAccumulationDP):
        self.problem = problem

    # -- bottom-up --------------------------------------------------------- #

    def summarize(self, ctx: ClusterContext) -> Any:
        result = self._evaluate(ctx, hole_value=None)[ctx.top_element]
        kind, payload = result
        if ctx.is_indegree_one:
            if kind != "fun":
                raise RuntimeError("indegree-one cluster must summarise to a function")
            return {"kind": "fun", "fn": payload}
        if kind != "val":
            raise RuntimeError("indegree-zero cluster must summarise to a value")
        return {"kind": "val", "value": payload}

    def label_virtual_root(self, ctx: ClusterContext, summary: Any) -> Tuple[Any, Any]:
        value = summary["value"]
        return value, value

    # -- top-down ----------------------------------------------------------- #

    def assign_internal_labels(
        self, ctx: ClusterContext, out_label: Any, in_label: Any
    ) -> Dict[Element, Any]:
        results = self._evaluate(ctx, hole_value=in_label)
        labels: Dict[Element, Any] = {}
        for e in ctx.elements:
            if e == ctx.top_element:
                continue
            kind, payload = results[e]
            if kind != "val":
                raise RuntimeError(
                    "all element values must be concrete once the hole value is known"
                )
            labels[e] = payload
        return labels

    def extract(self, tree, edge_labels, root_label, value):
        return self.problem.extract_solution(tree, edge_labels.node_dict(), value)

    # -- local evaluation ---------------------------------------------------- #

    def _evaluate(
        self, ctx: ClusterContext, hole_value: Optional[Any]
    ) -> Dict[Element, Tuple[str, Any]]:
        """Evaluate every element of the cluster to ("val", x) or ("fun", f).

        When ``hole_value`` is None the hole (if any) stays symbolic and the
        elements on the hole-to-top path evaluate to functions; otherwise
        everything evaluates to concrete values.
        """
        p = self.problem
        order: List[Element] = []
        stack = [ctx.top_element]
        while stack:
            e = stack.pop()
            order.append(e)
            stack.extend(ctx.children_of(e))
        order.reverse()

        results: Dict[Element, Tuple[str, Any]] = {}
        for e in order:
            kids = ctx.children_of(e)
            if e[0] == "node":
                inp = ctx.node_input(e[1])
                child_results = [results[c] for c in kids]
                symbolic_here = (ctx.hole_element == e and ctx.is_indegree_one)
                values = [r[1] for r in child_results if r[0] == "val"]
                funs = [r[1] for r in child_results if r[0] == "fun"]
                n_sym = len(funs) + (1 if symbolic_here else 0)
                if n_sym == 0:
                    results[e] = ("val", p.value_of(inp, values))
                elif n_sym == 1:
                    if symbolic_here and hole_value is not None:
                        results[e] = ("val", p.value_of(inp, values + [hole_value]))
                    elif symbolic_here:
                        results[e] = ("fun", p.partial_function(inp, values))
                    else:
                        partial = p.partial_function(inp, values)
                        results[e] = ("fun", p.compose(partial, funs[0]))
                else:
                    raise RuntimeError("a cluster can contain at most one open boundary")
            else:
                kind = ctx.element_kind(e)
                summary = ctx.summary_of(e)
                if kind == "indegree-1":
                    g = summary["fn"]
                    if kids:
                        child_kind, child_payload = results[kids[0]]
                        if child_kind == "val":
                            results[e] = ("val", p.apply(g, child_payload))
                        else:
                            results[e] = ("fun", p.compose(g, child_payload))
                    else:
                        if ctx.hole_element != e:
                            raise RuntimeError(
                                f"indegree-one sub-cluster {e!r} has no child and is not the hole"
                            )
                        if hole_value is not None:
                            results[e] = ("val", p.apply(g, hole_value))
                        else:
                            results[e] = ("fun", g)
                else:
                    results[e] = ("val", summary["value"])
        return results


# --------------------------------------------------------------------------- #
# Downward accumulation
# --------------------------------------------------------------------------- #


class DownwardAccumulationDP(abc.ABC):
    """A problem where every node's value is determined by its parent's value.

    The edge label produced for an edge ``(u, p)`` is the *message* on the
    edge, i.e. the value of the parent ``p``; the value of ``u`` itself is
    recovered locally as ``apply(down_function(u, edge), message)``.  The
    label of the virtual root edge is the seed value.
    """

    name: str = "downward-accumulation"

    @abc.abstractmethod
    def root_seed(self) -> Any:
        """The message entering the root (e.g. -1 for depth so the root gets 0)."""

    @abc.abstractmethod
    def down_function(self, v: NodeInput, edge: Optional[EdgeInfo]) -> Any:
        """Value of ``v`` as an O(1)-word function of its parent's value."""

    @abc.abstractmethod
    def apply(self, fn: Any, x: Any) -> Any:
        """Evaluate a function of the algebra."""

    @abc.abstractmethod
    def compose(self, outer: Any, inner: Any) -> Any:
        """The function ``x -> outer(inner(x))``."""

    def extract_solution(self, tree, node_values: Dict[Hashable, Any], root_value: Any) -> Any:
        return {"node_values": node_values, "root_value": root_value}


class DownwardAccumulationSolver(ClusterDP):
    """Generic :class:`ClusterDP` for downward accumulations."""

    produces_labels = True

    def __init__(self, problem: DownwardAccumulationDP):
        self.problem = problem

    # -- bottom-up: only indegree-one clusters need a summary ---------------- #

    def summarize(self, ctx: ClusterContext) -> Any:
        if not ctx.is_indegree_one:
            return {"kind": "none"}
        p = self.problem
        # Compose the per-element down-functions along the path from the top
        # element to the hole element: the result maps the value above the
        # cluster to the value of the node its incoming edge attaches to.
        path: List[Element] = []
        parent_of = ctx.cluster.element_parent()
        e = ctx.hole_element
        while True:
            path.append(e)
            if e == ctx.top_element:
                break
            e = parent_of[e]
        path.reverse()  # top ... hole

        fn = None
        for e in path:
            if e[0] == "node":
                edge = ctx.edge_to_parent(e)
                if edge is None:
                    edge = ctx.edge_info(ctx.out_edge)
                step = p.down_function(ctx.node_input(e[1]), edge)
            else:
                kind = ctx.element_kind(e)
                if kind != "indegree-1":
                    raise RuntimeError(
                        "only indegree-one sub-clusters can lie on the open path"
                    )
                step = ctx.summary_of(e)["fn"]
            fn = step if fn is None else p.compose(step, fn)
        return {"kind": "fun", "fn": fn}

    def label_virtual_root(self, ctx: ClusterContext, summary: Any) -> Tuple[Any, Any]:
        p = self.problem
        seed = p.root_seed()
        root_value = p.apply(p.down_function(ctx.node_input(ctx.top_node), None), seed)
        return seed, root_value

    # -- top-down ------------------------------------------------------------ #

    def assign_internal_labels(
        self, ctx: ClusterContext, out_label: Any, in_label: Any
    ) -> Dict[Element, Any]:
        p = self.problem
        labels: Dict[Element, Any] = {}
        messages: Dict[Element, Any] = {ctx.top_element: out_label}
        stack = [ctx.top_element]
        while stack:
            e = stack.pop()
            msg = messages[e]
            kids = ctx.children_of(e)
            if e[0] == "node":
                if e == ctx.top_element:
                    from repro.clustering.model import VIRTUAL_PARENT

                    edge = (
                        None
                        if ctx.cluster.out_edge[1] == VIRTUAL_PARENT
                        else ctx.edge_info(ctx.out_edge)
                    )
                else:
                    edge = ctx.edge_to_parent(e)
                value = p.apply(p.down_function(ctx.node_input(e[1]), edge), msg)
                for c in kids:
                    messages[c] = value
                    labels[c] = value
                    stack.append(c)
            else:
                kind = ctx.element_kind(e)
                if kind == "indegree-1":
                    fn = ctx.summary_of(e)["fn"]
                    delivered = p.apply(fn, msg)
                    for c in kids:
                        messages[c] = delivered
                        labels[c] = delivered
                        stack.append(c)
                # indegree-zero sub-clusters: leaves, nothing below.
        return labels

    def extract(self, tree, edge_labels, root_label, value):
        p = self.problem
        node_values: Dict[Hashable, Any] = {tree.root: value}
        for (child, parent), msg in edge_labels.items():
            edge = EdgeInfo(edge=(child, parent))
            inp = NodeInput(node=child, data=tree.node_data.get(child))
            node_values[child] = p.apply(p.down_function(inp, edge), msg)
        return self.problem.extract_solution(tree, node_values, value)
