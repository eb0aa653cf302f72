"""Data model of the hierarchical clustering (paper Definitions 2 and 3).

An *element* of a layer is either an original tree node or a cluster created
at a lower layer.  A *cluster* groups elements of the previous layer such
that the grouped vertex set has exactly one outgoing edge and at most one
incoming edge in the original tree, and contains at most ``n^delta`` nodes.

The model deliberately stores, for every cluster, the full structure the DP
engine needs to do its per-cluster local computations (Figures 2 and 3 of the
paper): its elements, the contracted-tree edges internal to it (each tagged
with the original tree edge it corresponds to), the top element carrying the
outgoing edge, and the incoming edge / hole element if the cluster has
indegree one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.trees.tree import RootedTree

__all__ = [
    "Element",
    "node_element",
    "cluster_element",
    "is_node_element",
    "is_cluster_element",
    "ClusterKind",
    "Cluster",
    "HierarchicalClustering",
    "VIRTUAL_PARENT",
]

#: Sentinel used as the parent endpoint of the virtual edge leaving the root.
VIRTUAL_PARENT: Hashable = ("__virtual_root__",)

# An element is a tagged tuple: ("node", node_id) or ("cluster", cluster_id).
Element = Tuple[str, Hashable]


def node_element(v: Hashable) -> Element:
    """The element representing original tree node ``v``."""
    return ("node", v)


def cluster_element(cid: int) -> Element:
    """The element representing cluster ``cid``."""
    return ("cluster", cid)


def is_node_element(e: Element) -> bool:
    return e[0] == "node"


def is_cluster_element(e: Element) -> bool:
    return e[0] == "cluster"


class ClusterKind(enum.Enum):
    """Classification of clusters by their number of incoming edges."""

    INDEGREE_ZERO = "indegree-0"
    INDEGREE_ONE = "indegree-1"
    FINAL = "final"  # the single topmost cluster (also indegree-0)


@dataclass
class Cluster:
    """One cluster of the hierarchical clustering.

    Attributes
    ----------
    cid:
        Unique cluster id (assigned in creation order).
    layer:
        The layer at which this cluster is created (1-based; layer 0 is the
        input tree).
    kind:
        Indegree-zero, indegree-one, or the final top cluster.
    elements:
        The elements of layer ``layer - 1`` grouped into this cluster.
    internal_edges:
        Contracted-tree edges between elements of this cluster, as
        ``(child_element, parent_element, original_edge)`` triples, where
        ``original_edge = (child_node, parent_node)`` in the (degree-reduced)
        input tree.
    top_element:
        The element whose top node carries this cluster's outgoing edge.
    top_node:
        The original node that is the child endpoint of the outgoing edge.
    out_edge:
        The outgoing original edge ``(top_node, parent_node)``; for the final
        cluster the parent endpoint is :data:`VIRTUAL_PARENT`.
    in_edge:
        The incoming original edge ``(child_node_below, node_inside)`` if the
        cluster has indegree one, else ``None``.
    hole_element:
        The element of this cluster to which the incoming edge attaches
        (``None`` for indegree-zero clusters).
    """

    cid: int
    layer: int
    kind: ClusterKind
    elements: List[Element]
    internal_edges: List[Tuple[Element, Element, Tuple[Hashable, Hashable]]]
    top_element: Element
    top_node: Hashable
    out_edge: Tuple[Hashable, Hashable]
    in_edge: Optional[Tuple[Hashable, Hashable]] = None
    hole_element: Optional[Element] = None

    # Lazily built element-tree views, read by ClusterContext (the python
    # reference backend and raw ClusterDPs); the dense backend reads the
    # compiled layer plans instead.  Callers must treat the returned
    # containers as read-only.
    _element_children: Optional[Dict[Element, List[Element]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _element_parent: Optional[Dict[Element, Element]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _edge_of_element: Optional[Dict[Element, Tuple[Hashable, Hashable]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sorted_children: Optional[Dict[Element, List[Element]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _postorder: Optional[List[Element]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def element_children(self) -> Dict[Element, List[Element]]:
        """Children lists of the element tree inside this cluster (cached)."""
        if self._element_children is None:
            children: Dict[Element, List[Element]] = {e: [] for e in self.elements}
            for child, parent, _edge in self.internal_edges:
                children[parent].append(child)
            self._element_children = children
        return self._element_children

    def element_parent(self) -> Dict[Element, Element]:
        """Parent pointers of the element tree inside this cluster (cached)."""
        if self._element_parent is None:
            parent: Dict[Element, Element] = {}
            for child, par, _edge in self.internal_edges:
                parent[child] = par
            self._element_parent = parent
        return self._element_parent

    def edge_of_element(self) -> Dict[Element, Tuple[Hashable, Hashable]]:
        """For every non-top element, the original edge to its parent element."""
        if self._edge_of_element is None:
            self._edge_of_element = {
                child: edge for child, _parent, edge in self.internal_edges
            }
        return self._edge_of_element

    def element_children_sorted(self) -> Dict[Element, List[Element]]:
        """Children lists in the deterministic (repr) absorption order (cached)."""
        if self._sorted_children is None:
            self._sorted_children = {
                e: sorted(kids, key=repr) for e, kids in self.element_children().items()
            }
        return self._sorted_children

    def element_postorder(self) -> List[Element]:
        """Postorder of the element tree (children before parents; cached)."""
        if self._postorder is None:
            children = self.element_children_sorted()
            order: List[Element] = []
            stack = [self.top_element]
            while stack:
                e = stack.pop()
                order.append(e)
                stack.extend(children.get(e, ()))
            order.reverse()
            self._postorder = order
        return self._postorder

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cluster(cid={self.cid}, layer={self.layer}, kind={self.kind.value}, "
            f"elements={len(self.elements)})"
        )


@dataclass
class HierarchicalClustering:
    """The full hierarchical clustering of a rooted tree.

    Attributes
    ----------
    tree:
        The (degree-reduced) rooted tree the clustering was built for.
    clusters:
        All clusters keyed by cluster id.
    layers:
        ``layers[i]`` is the list of cluster ids created at layer ``i``
        (``layers[0]`` is empty: layer 0 is the input tree).
    num_layers:
        Index of the topmost layer (the one containing only the final
        cluster).
    final_cluster_id:
        Id of the single topmost cluster.
    stats:
        Free-form statistics recorded by the builder (iteration counts,
        shrink factors, measured rounds), used by benchmarks.
    """

    tree: RootedTree
    clusters: Dict[int, Cluster]
    layers: List[List[int]]
    num_layers: int
    final_cluster_id: int
    stats: Dict[str, Any] = field(default_factory=dict)

    # The compiled DP layer plans (repro.dp.kernels.plan.ClusteringPlan):
    # built on the first solve, shared by every problem and pass.
    _dp_plan: Optional[Any] = field(default=None, init=False, repr=False, compare=False)
    #: Advanced by every :meth:`invalidate_payload_plans` call.  Copies of
    #: the clustering held elsewhere (the exec pool's workers) are keyed by
    #: it, so a payload write makes the next pooled solve ship fresh payloads.
    payload_epoch: int = field(default=0, init=False, repr=False, compare=False)

    def cluster(self, cid: int) -> Cluster:
        return self.clusters[cid]

    def invalidate_payload_plans(
        self,
        nodes: Optional[Iterable[Hashable]] = None,
        edges: Optional[Iterable[Tuple[Hashable, Hashable]]] = None,
    ) -> None:
        """Drop the compiled plan's cached payload inputs.

        The DP plan caches one ``NodeInput`` per node and one ``EdgeInfo``
        per edge, each baking the payload read from the tree when it was
        built.  A point update that edits the payload of nodes ``nodes`` or
        edges ``edges`` must call this so the next solve rebuilds exactly
        those inputs; with neither argument every cached input is dropped
        (for payloads mutated out of band).  The plan's structural arrays
        are untouched — the update model never changes the tree's shape.
        Every call advances :attr:`payload_epoch`.
        """
        self.payload_epoch += 1
        if self._dp_plan is not None:
            self._dp_plan.invalidate_payload_plans(nodes, edges)

    @property
    def final_cluster(self) -> Cluster:
        return self.clusters[self.final_cluster_id]

    def clusters_at_layer(self, layer: int) -> List[Cluster]:
        return [self.clusters[cid] for cid in self.layers[layer]]

    def max_cluster_size(self) -> int:
        """Largest number of elements in any cluster."""
        return max((c.num_elements for c in self.clusters.values()), default=0)

    def max_cluster_node_count(self) -> int:
        """Largest number of *original nodes* participating in any cluster."""
        counts = self.cluster_node_counts()
        return max(counts.values(), default=0)

    def cluster_node_counts(self) -> Dict[int, int]:
        """Number of original nodes participating in each cluster (V(C))."""
        counts: Dict[int, int] = {}
        # Process clusters in creation (layer) order so lower clusters are done first.
        for cid in sorted(self.clusters.keys()):
            c = self.clusters[cid]
            total = 0
            for e in c.elements:
                if is_node_element(e):
                    total += 1
                else:
                    total += counts[e[1]]
            counts[cid] = total
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalClustering(n={self.tree.num_nodes}, layers={self.num_layers}, "
            f"clusters={len(self.clusters)})"
        )
