"""The canonical rooted-tree object used throughout the reproduction.

The paper's *standard representation* is a rooted tree given as a list of
directed child→parent edges (Section 3).  :class:`RootedTree` wraps that
representation with parent/children indices, optional per-node and per-edge
data, and convenience constructors.  Node identifiers are arbitrary hashable
values (typically integers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

__all__ = ["RootedTree"]

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]  # (child, parent)


@dataclass
class RootedTree:
    """A rooted tree represented as child→parent edges.

    Attributes
    ----------
    root:
        The root node identifier.
    parent:
        Mapping from every node to its parent; the root maps to itself.
    node_data:
        Optional per-node payload (weights, leaf values, labels, ...).
    edge_data:
        Optional per-edge payload keyed by ``(child, parent)`` (weights,
        original/auxiliary flags, ...).
    """

    root: NodeId
    parent: Dict[NodeId, NodeId]
    node_data: Dict[NodeId, Any] = field(default_factory=dict)
    edge_data: Dict[Edge, Any] = field(default_factory=dict)

    _children: Optional[Dict[NodeId, List[NodeId]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Edge],
        root: Optional[NodeId] = None,
        node_data: Optional[Dict[NodeId, Any]] = None,
        edge_data: Optional[Dict[Edge, Any]] = None,
    ) -> "RootedTree":
        """Build a tree from directed child→parent edges.

        If ``root`` is omitted it is inferred as the unique node that appears
        as a parent but never as a child.
        """
        parent: Dict[NodeId, NodeId] = {}
        children_set = set()
        parents_set = set()
        for child, par in edges:
            if child in parent:
                raise ValueError(f"node {child!r} has two parents")
            parent[child] = par
            children_set.add(child)
            parents_set.add(par)
        if root is None:
            candidates = parents_set - children_set
            if len(candidates) != 1:
                raise ValueError(
                    f"cannot infer a unique root (candidates: {sorted(map(repr, candidates))})"
                )
            root = next(iter(candidates))
        parent[root] = root
        tree = cls(
            root=root,
            parent=parent,
            node_data=dict(node_data or {}),
            edge_data=dict(edge_data or {}),
        )
        tree.validate()
        return tree

    @classmethod
    def from_parent_map(
        cls,
        parent: Dict[NodeId, NodeId],
        root: Optional[NodeId] = None,
        node_data: Optional[Dict[NodeId, Any]] = None,
        edge_data: Optional[Dict[Edge, Any]] = None,
    ) -> "RootedTree":
        """Build a tree from a parent map (root maps to itself or is given)."""
        parent = dict(parent)
        if root is None:
            roots = [v for v, p in parent.items() if p == v]
            if len(roots) != 1:
                raise ValueError("parent map must contain exactly one self-loop root")
            root = roots[0]
        parent[root] = root
        tree = cls(
            root=root,
            parent=parent,
            node_data=dict(node_data or {}),
            edge_data=dict(edge_data or {}),
        )
        tree.validate()
        return tree

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    def nodes(self) -> List[NodeId]:
        return list(self.parent.keys())

    def edges(self) -> List[Edge]:
        """All directed child→parent edges (excluding the root self-loop)."""
        return [(v, p) for v, p in self.parent.items() if v != self.root]

    def children(self, v: NodeId) -> List[NodeId]:
        return self.children_map().get(v, [])

    def children_map(self) -> Dict[NodeId, List[NodeId]]:
        if self._children is None:
            cm: Dict[NodeId, List[NodeId]] = {v: [] for v in self.parent}
            for v, p in self.parent.items():
                if v != self.root:
                    cm[p].append(v)
            # Deterministic order.
            for v in cm:
                cm[v].sort(key=lambda x: (str(type(x)), str(x)))
            self._children = cm
        return self._children

    def is_leaf(self, v: NodeId) -> bool:
        return len(self.children(v)) == 0

    def leaves(self) -> List[NodeId]:
        return [v for v in self.parent if self.is_leaf(v)]

    def degree(self, v: NodeId) -> int:
        """Undirected degree of ``v`` in the tree."""
        d = len(self.children(v))
        if v != self.root:
            d += 1
        return d

    def weight(self, v: NodeId, default: float = 0.0) -> float:
        """Numeric node payload, defaulting to ``default``."""
        val = self.node_data.get(v, default)
        if isinstance(val, (int, float)):
            return float(val)
        return default

    # ------------------------------------------------------------------ #
    # Traversals
    # ------------------------------------------------------------------ #

    def bfs_order(self) -> List[NodeId]:
        """Nodes in breadth-first order from the root (iterative)."""
        order = [self.root]
        cm = self.children_map()
        i = 0
        while i < len(order):
            order.extend(cm[order[i]])
            i += 1
        return order

    def dfs_order(self) -> List[NodeId]:
        """Nodes in depth-first (preorder) order from the root (iterative)."""
        cm = self.children_map()
        order: List[NodeId] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(cm[v]))
        return order

    def postorder(self) -> List[NodeId]:
        """Nodes in post-order (children before parents), iterative."""
        return list(reversed(self.dfs_order_children_first()))

    def dfs_order_children_first(self) -> List[NodeId]:
        """Reverse post-order helper: parents before children, DFS-consistent."""
        cm = self.children_map()
        order: List[NodeId] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(cm[v])
        return order

    def depths(self) -> Dict[NodeId, int]:
        """Depth of every node (root has depth 0), computed iteratively."""
        cm = self.children_map()
        depth = {self.root: 0}
        stack = [self.root]
        while stack:
            v = stack.pop()
            for c in cm[v]:
                depth[c] = depth[v] + 1
                stack.append(c)
        return depth

    def subtree_sizes(self) -> Dict[NodeId, int]:
        """Size of the subtree rooted at every node, computed iteratively."""
        sizes = {v: 1 for v in self.parent}
        for v in self.postorder():
            if v != self.root:
                sizes[self.parent[v]] += sizes[v]
        return sizes

    # ------------------------------------------------------------------ #
    # Mutation-free derivations
    # ------------------------------------------------------------------ #

    def with_node_data(self, node_data: Dict[NodeId, Any]) -> "RootedTree":
        """A copy of this tree with different node payloads."""
        return RootedTree(
            root=self.root,
            parent=dict(self.parent),
            node_data=dict(node_data),
            edge_data=dict(self.edge_data),
        )

    def payload_snapshot(self) -> "RootedTree":
        """A copy with its own payload dicts that shares this tree's structure.

        ``parent`` and the children cache (if built) are shared, not
        copied, so the copy costs two shallow dict copies.  It keeps the
        payloads of this moment for as long as only payloads change and
        each change replaces a payload wholesale, which is the incremental
        update model (:mod:`repro.dynamic`); the payload objects themselves
        are shared.
        """
        return RootedTree(
            root=self.root,
            parent=self.parent,
            node_data=dict(self.node_data),
            edge_data=dict(self.edge_data),
            _children=self._children,
        )

    def relabeled(self) -> Tuple["RootedTree", Dict[NodeId, int]]:
        """A copy with nodes relabeled 0..n-1 in BFS order; returns the map."""
        order = self.bfs_order()
        mapping = {v: i for i, v in enumerate(order)}
        parent = {mapping[v]: mapping[p] for v, p in self.parent.items()}
        node_data = {mapping[v]: d for v, d in self.node_data.items()}
        edge_data = {
            (mapping[c], mapping[p]): d for (c, p), d in self.edge_data.items()
        }
        return (
            RootedTree(
                root=mapping[self.root],
                parent=parent,
                node_data=node_data,
                edge_data=edge_data,
            ),
            mapping,
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Raise ``ValueError`` if the structure is not a rooted tree."""
        if self.root not in self.parent:
            raise ValueError("root is not a node of the tree")
        if self.parent[self.root] != self.root:
            raise ValueError("root must be its own parent")
        # Every node must reach the root without cycles.
        seen_ok: set = {self.root}
        for v in self.parent:
            path = []
            u = v
            while u not in seen_ok:
                path.append(u)
                if u not in self.parent:
                    raise ValueError(f"parent chain leaves the node set at {u!r}")
                nxt = self.parent[u]
                if nxt == u and u != self.root:
                    raise ValueError(f"non-root self-loop at {u!r}")
                if nxt in path:
                    raise ValueError(f"cycle detected through {u!r}")
                u = nxt
            seen_ok.update(path)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self.parent)

    def __contains__(self, v: NodeId) -> bool:
        return v in self.parent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RootedTree(n={self.num_nodes}, root={self.root!r})"
