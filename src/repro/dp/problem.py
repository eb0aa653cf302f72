"""Problem interfaces of the DP framework.

Two layers of abstraction:

* :class:`ClusterDP` is what the engine (Section 5) consumes: summarise a
  cluster given its elements' summaries (Figure 2), label the virtual root
  edge of the topmost cluster, and fill in a cluster's internal edge labels
  given its boundary labels (Figure 3).  Raw problems (tree median, Gaussian
  belief propagation, longest path) implement it directly.

* :class:`FiniteStateDP` describes the large family of per-node finite-state
  problems (independent set, vertex cover, dominating set, matching,
  colorings, counting, max-SAT, ...).  The node chooses a state; children are
  folded into an *accumulator* one at a time through ``transition`` (which
  sees the connecting edge, so original and auxiliary edges of the
  degree-reduction can behave differently, Section 5.3); ``finalize`` maps
  the accumulator to the node's state.  The generic
  :class:`~repro.dp.local_solver.FiniteStateClusterSolver` turns any such
  description into a :class:`ClusterDP`.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.clustering.degree_reduction import DegreeReductionResult
from repro.clustering.model import Cluster, Element
from repro.dp.semiring import Semiring
from repro.trees.tree import RootedTree

if TYPE_CHECKING:
    from repro.dp.kernels.labels import EdgeLabels, LabelFormat
    from repro.dp.kernels.plan import LayerBatch

__all__ = ["NodeInput", "EdgeInfo", "ClusterContext", "ClusterDP", "FiniteStateDP"]


def _payload_weight(self: Any, default: float = 0.0) -> float:
    """The payload's weight: a number, or a mapping's ``"weight"`` entry.

    Anything else, no payload included, weighs ``default``.
    """
    data = self.data
    if data is None:
        return default
    if type(data) is dict:  # fast path: ABC checks are hot in cache keys
        w = data.get("weight")
        return default if w is None else float(w)
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        return float(data)
    if isinstance(data, MappingABC) and "weight" in data:
        return float(data["weight"])
    return default


@dataclass(frozen=True)
class NodeInput:
    """What a DP problem may know about one tree node.

    Attributes
    ----------
    node:
        The node identifier.
    data:
        The node's input payload (weight, leaf value, colour list, ...).
    is_auxiliary:
        True when the node was introduced by the degree reduction
        (Section 4.4); problems typically give such nodes zero weight and
        mirror constraints across them (Section 5.3).
    """

    node: Hashable
    data: Any = None
    is_auxiliary: bool = False

    weight = _payload_weight


@dataclass(frozen=True)
class EdgeInfo:
    """What a DP problem may know about one tree edge.

    Attributes
    ----------
    edge:
        ``(child, parent)`` node pair.
    kind:
        ``"original"`` or ``"auxiliary"`` (Section 5.3).
    data:
        Optional per-edge payload (weight, clause list, ...).
    """

    edge: Tuple[Hashable, Hashable]
    kind: str = "original"
    data: Any = None

    @property
    def is_auxiliary(self) -> bool:
        return self.kind == "auxiliary"

    weight = _payload_weight


#: The (empty) element-tree views of a single-element cluster.
_NO_ELEMENT_TREE: Mapping[Any, Any] = MappingProxyType({})


class ClusterContext:
    """Everything a :class:`ClusterDP` may inspect about one cluster.

    Provides the element tree inside the cluster, the node inputs and edge
    info of the degree-reduced tree ``reduction.tree`` (the tree the
    clustering was built on), and the summaries of the sub-clusters absorbed
    by this cluster.
    """

    def __init__(
        self,
        cluster: Cluster,
        summaries: Mapping[int, Any],
        clusters: Mapping[int, Cluster],
        reduction: DegreeReductionResult,
    ):
        self.cluster = cluster
        self.tree: RootedTree = reduction.tree
        self._summaries = summaries
        self._clusters = clusters
        self._reduction = reduction
        if cluster.internal_edges:
            self._children: Mapping[Element, List[Element]] = cluster.element_children()
            self._edge_of: Mapping[Element, Tuple[Hashable, Hashable]] = (
                cluster.edge_of_element()
            )
        else:  # a single-element cluster has no element tree to look up
            self._children = self._edge_of = _NO_ELEMENT_TREE

    # -- structure ------------------------------------------------------- #

    @property
    def elements(self) -> List[Element]:
        return self.cluster.elements

    @property
    def top_element(self) -> Element:
        return self.cluster.top_element

    def children_of(self, e: Element) -> List[Element]:
        return self._children.get(e, [])

    def sorted_children_of(self, e: Element) -> List[Element]:
        """Children of ``e`` in the deterministic absorption order (cached)."""
        return self.cluster.element_children_sorted().get(e, [])

    def element_postorder(self) -> List[Element]:
        """Cached postorder of the cluster's element tree."""
        return self.cluster.element_postorder()

    def edge_to_parent(self, e: Element) -> Optional[EdgeInfo]:
        """The original edge from element ``e`` to its parent element (if internal)."""
        edge = self._edge_of.get(e)
        if edge is None:
            return None
        return self.edge_info(edge)

    # -- payloads ---------------------------------------------------------- #

    def node_input(self, v: Hashable) -> NodeInput:
        return NodeInput(
            node=v,
            data=self.tree.node_data.get(v),
            is_auxiliary=v in self._reduction.aux_nodes,
        )

    def original_parent_of(self, v: Hashable) -> Hashable:
        """The original node that is the logical parent of ``v`` (Section 6.1.1)."""
        return self._reduction.original_parent.get(v, self.tree.parent.get(v, v))

    def edge_info(self, edge: Tuple[Hashable, Hashable]) -> EdgeInfo:
        return EdgeInfo(
            edge=edge,
            kind=self._reduction.edge_kinds.get(edge, "original"),
            data=self.tree.edge_data.get(edge),
        )

    def element_kind(self, e: Element) -> str:
        """``"node"``, ``"indegree-0"``, ``"indegree-1"`` or ``"final"``."""
        if e[0] == "node":
            return "node"
        return self._clusters[e[1]].kind.value

    def summary_of(self, e: Element) -> Any:
        """Summary of a sub-cluster element (bottom-up invariant, Def. 8)."""
        if e[0] != "cluster":
            raise KeyError(f"element {e!r} is not a cluster element")
        return self._summaries[e[1]]

    def sub_cluster(self, e: Element) -> Cluster:
        """The :class:`Cluster` object of a cluster element."""
        if e[0] != "cluster":
            raise KeyError(f"element {e!r} is not a cluster element")
        return self._clusters[e[1]]

    def element_top_node(self, e: Element) -> Hashable:
        """The original node that carries element ``e``'s outgoing edge."""
        if e[0] == "node":
            return e[1]
        return self._clusters[e[1]].top_node

    # -- hole -------------------------------------------------------------- #

    @property
    def in_edge(self) -> Optional[EdgeInfo]:
        if self.cluster.in_edge is None:
            return None
        return self.edge_info(self.cluster.in_edge)

    @property
    def hole_element(self) -> Optional[Element]:
        return self.cluster.hole_element

    @property
    def is_indegree_one(self) -> bool:
        return self.cluster.in_edge is not None

    @property
    def out_edge(self) -> Tuple[Hashable, Hashable]:
        return self.cluster.out_edge

    @property
    def top_node(self) -> Hashable:
        return self.cluster.top_node


class ClusterDP(abc.ABC):
    """Engine-facing interface: the paper's Definition 1, per cluster.

    Summaries must be representable with O(1) machine words (checked in the
    test-suite with :func:`repro.mpc.words.word_size` for every shipped
    problem).
    """

    #: Problems whose semiring is not selective cannot produce per-edge labels;
    #: the engine then skips the top-down pass and only reports the root value.
    produces_labels: bool = True

    @abc.abstractmethod
    def summarize(self, ctx: ClusterContext) -> Any:
        """Compute f(C) from the summaries of the cluster's elements (Fig. 2)."""

    def summarize_layer(self, batch: "LayerBatch") -> Tuple[List[Any], int]:
        """Summaries of one layer batch, aligned with ``batch.cids``, plus words.

        A layer is the engine's parallel unit (all its clusters are solved
        independently within one charged round, Section 5.1).  Returns the
        summaries and their routed word volume.  The default summarizes one
        :class:`ClusterContext` per cluster and prices every summary; the
        dense backend overrides this to run the whole batch as array
        programs over the compiled layer plan.
        """
        summaries = [self.summarize(ctx) for ctx in batch.contexts()]
        return summaries, batch.words(summaries)

    def label_format(self) -> "LabelFormat":
        """How this solver's labels are stored (:mod:`repro.dp.kernels.labels`).

        The default stores label objects; a solver declaring state ids
        receives and returns ids in :meth:`label_layer`.
        """
        # Imported here: the kernels package imports this module.
        from repro.dp.kernels.labels import OBJECT_LABELS

        return OBJECT_LABELS

    def label_layer(
        self, batch: "LayerBatch", out_labels: Sequence[Any], in_labels: Sequence[Any]
    ) -> Tuple[Sequence[Any], int]:
        """Labels of a layer batch's internal edges plus their routed words.

        ``out_labels`` / ``in_labels`` are the boundary labels of the
        batch's clusters, in :meth:`label_format`'s stored form (its
        ``absent`` value for a missing incoming edge).  The labels are
        aligned with ``batch.edge_index``.  The default runs
        :meth:`assign_internal_labels` per cluster.
        """
        labels: List[Any] = []
        for ctx, out_label, in_label in zip(batch.contexts(), out_labels, in_labels):
            by_element = self.assign_internal_labels(ctx, out_label, in_label)
            labels.extend(by_element[child] for child, _p, _e in ctx.cluster.internal_edges)
        return labels, batch.words(labels)

    @abc.abstractmethod
    def label_virtual_root(self, ctx: ClusterContext, summary: Any) -> Tuple[Any, Any]:
        """Label of the topmost cluster's (virtual) outgoing edge.

        Returns ``(label, value)`` where ``value`` is the problem's objective
        (optimal weight, count, aggregate at the root, ...).
        """

    def assign_internal_labels(
        self, ctx: ClusterContext, out_label: Any, in_label: Any
    ) -> Dict[Element, Any]:
        """Labels of the cluster's internal edges given its boundary labels (Fig. 3).

        Returns a mapping from every non-top element to the label of the edge
        connecting it to its parent element.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support the top-down pass"
        )

    def extract(
        self,
        tree: RootedTree,
        edge_labels: "EdgeLabels",
        root_label: Any,
        value: Any,
    ) -> Any:
        """Optional problem-specific post-processing of the labelling.

        ``edge_labels`` is a read-only view of the solve's label array;
        ``edge_labels.node_dict()`` copies every node's label (the root's
        is ``root_label``) into a dict in one pass.
        """
        return {"edge_labels": edge_labels, "root_label": root_label, "value": value}


class FiniteStateDP(abc.ABC):
    """Per-node finite-state DP description (see module docstring).

    Concrete problems define:

    * :attr:`states` — the finite per-node state set; the label of an edge
      ``(u, v)`` is the state chosen for ``u``.
    * :attr:`semiring` — how values are combined.
    * :meth:`node_init` — initial accumulator(s) for a node.
    * :meth:`transition` — absorb one child given its state and the
      connecting edge; yields ``(new_accumulator_state, value)`` pairs.
    * :meth:`finalize` — map an accumulator state to the node's own states;
      yields ``(node_state, value)`` pairs (typically adding the node weight).
    * :meth:`virtual_root_value` — extra value/feasibility of a state at the
      tree root (the virtual outgoing edge).

    Problems whose accumulator space is finite declare it in
    :attr:`acc_states`; together with a semiring that has a dense kernel
    (:mod:`repro.dp.kernels`) this enables the vectorized NumPy backend,
    which represents all tables as dense arrays indexed by state id.  The
    optional ``*_key`` hooks let the backend cache the enumerated transition
    tensors across nodes: a problem whose rules depend only on, say, the
    edge kind returns that as the key and pays the enumeration cost once per
    kind instead of once per tree node.  Every payload the rule reads must
    be part of the key.
    """

    #: Finite, ordered state set.
    states: Sequence[Hashable] = ()
    #: Finite, ordered accumulator state set, or ``None`` when the
    #: accumulator space is unbounded/exotic (forces the scalar backend).
    acc_states: Optional[Sequence[Hashable]] = None
    #: Evaluation semiring.
    semiring: Semiring = None  # type: ignore[assignment]
    #: Human-readable problem name (used by the Table-1 benchmark).
    name: str = "finite-state-dp"

    def init_key(self, v: NodeInput) -> Optional[Hashable]:
        """Cache key of ``node_init(v)``'s dense vector (``None``: no caching)."""
        return None

    def transition_key(self, v: NodeInput, edge: EdgeInfo) -> Optional[Hashable]:
        """Cache key of ``transition``'s dense tensor for ``(v, edge)``."""
        return None

    def finalize_key(self, v: NodeInput) -> Optional[Hashable]:
        """Cache key of ``finalize(v, ·)``'s dense matrix (``None``: no caching)."""
        return None

    def finalize_affine_key(self, v: NodeInput) -> Optional[Tuple[Hashable, Any]]:
        """Optional affine decomposition of ``finalize``'s node parameter.

        Returns ``(structural_key, w)`` when the finalize values depend on
        the node only through ``w`` — a scalar (typically the node weight)
        or a tuple of scalars (e.g. per-node clause weights) — *linearly*:
        ``F(v) = F(v|w=0) + Σ_k w_k * M_k`` cell by cell, where ``M_k`` is
        the unit-probe difference for the k-th weight.  The dense backend
        then enumerates the probe matrices once per structural key (see
        :meth:`finalize_affine_probe`) and builds every node's matrix — or a
        whole batch of them — with one fused array expression.  All nodes
        sharing one structural key must declare the same number of weights.
        Return ``None`` when finalize is not affine (the backend falls back
        to :meth:`finalize_key` caching / enumeration).  Only meaningful for
        the tropical (min-plus / max-plus) semirings.
        """
        return None

    def finalize_affine_probe(self, v: NodeInput, w: Any) -> NodeInput:
        """A copy of ``v`` whose finalize parameter is ``w``.

        Required when :meth:`finalize_affine_key` is implemented; called
        once per structural key with ``w = 0.0`` and ``w = 1.0`` when the
        declared parameter is a scalar, or with the all-zero and unit weight
        tuples when it is a tuple.
        """
        raise NotImplementedError(
            f"{self.name}: finalize_affine_key is declared but "
            "finalize_affine_probe is not implemented"
        )

    def transition_affine_key(
        self, v: NodeInput, edge: EdgeInfo
    ) -> Optional[Tuple[Hashable, Tuple[float, ...]]]:
        """Optional affine decomposition of ``transition``'s edge parameter.

        The transition analogue of :meth:`finalize_affine_key`: returns
        ``(structural_key, weights)`` when the transition values depend on
        ``(v, edge)`` only through the weight tuple, linearly —
        ``T(v, edge) = T|w=0 + Σ_k w_k * M_k`` cell by cell — while the
        *feasibility* pattern (which cells are the semiring zero) is fixed
        by the structural key alone.  The dense backend enumerates the probe
        tensors once per structural key (see
        :meth:`transition_affine_probe`) and composes every edge's tensor —
        or a whole batch of them — with one fused array expression, which is
        what lets per-edge weighted rules (e.g. max-SAT clause weights) join
        the grouped cross-cluster evaluation instead of defeating the tensor
        caches.  Return ``None`` when the transition is not affine (the
        backend falls back to :meth:`transition_key` caching / enumeration).
        Only meaningful for the tropical (min-plus / max-plus) semirings.
        """
        return None

    def transition_affine_probe(
        self, v: NodeInput, edge: EdgeInfo, weights: Tuple[float, ...]
    ) -> Tuple[NodeInput, "EdgeInfo"]:
        """A ``(v, edge)`` copy whose transition weight vector is ``weights``.

        Required when :meth:`transition_affine_key` is implemented; called
        once per structural key with the all-zero tuple and each unit tuple.
        """
        raise NotImplementedError(
            f"{self.name}: transition_affine_key is declared but "
            "transition_affine_probe is not implemented"
        )

    @abc.abstractmethod
    def node_init(self, v: NodeInput) -> Iterable[Tuple[Hashable, Any]]:
        """Initial ``(accumulator_state, value)`` pairs for node ``v``."""

    @abc.abstractmethod
    def transition(
        self, v: NodeInput, acc: Hashable, child_state: Hashable, edge: EdgeInfo
    ) -> Iterable[Tuple[Hashable, Any]]:
        """Absorb one child with ``child_state`` through ``edge``."""

    @abc.abstractmethod
    def finalize(self, v: NodeInput, acc: Hashable) -> Iterable[Tuple[Hashable, Any]]:
        """Map a final accumulator state to ``(node_state, value)`` pairs."""

    def virtual_root_value(self, state: Hashable) -> Any:
        """Value multiplied in for the root's state (default: neutral)."""
        return self.semiring.one

    def label_of_state(self, state: Hashable) -> Any:
        """Convert an internal state into the user-visible edge label."""
        return state

    def extract_solution(
        self,
        tree: RootedTree,
        node_states: Dict[Hashable, Hashable],
        value: Any,
    ) -> Any:
        """Problem-specific interpretation of the per-node states."""
        return {"node_states": node_states, "value": value}
