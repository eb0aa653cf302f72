"""High-degree node handling (paper Section 4.4).

If a node has more than ``n^(delta/2)`` children, no small cluster can contain
it together with its children.  The remedy is to replace every high-degree
node ``u`` with an O(1)-depth tree: new *auxiliary* nodes are inserted between
``u`` and batches of its children, so that every node ends up with at most the
threshold number of children.  Edges are tagged as ``original`` or
``auxiliary`` so DP problems can treat them differently (Section 5.3); the
original parent of every auxiliary node is remembered (needed e.g. by the
tree-median problem's don't-care nodes, Section 6.1.1).

The transformation increases the node count and the diameter by at most a
constant factor (each original edge passes through at most
``ceil(log_t(max_degree))`` auxiliary levels, which is O(1) for
``max_degree <= n`` and threshold ``t = n^(delta/2)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.trees.tree import RootedTree

__all__ = ["EdgeKind", "DegreeReductionResult", "reduce_degrees", "AUX_PREFIX"]

#: Auxiliary node ids are tuples ("aux", original_parent, counter) so they can
#: never collide with user node ids.
AUX_PREFIX = "aux"


class EdgeKind:
    """Edge tags used by the DP problems (Section 5.3)."""

    ORIGINAL = "original"
    AUXILIARY = "auxiliary"


@dataclass
class DegreeReductionResult:
    """Outcome of :func:`reduce_degrees`.

    Attributes
    ----------
    tree:
        The degree-reduced tree.  Node data of original nodes is preserved;
        auxiliary nodes have no node data.  Edge data follows the rerouting:
        the payload of an original edge ``(c, p)`` lives on the reduced edge
        from ``c`` to its new (possibly auxiliary) parent; edges between
        auxiliary nodes carry none.
    edge_kinds:
        ``(child, parent) -> EdgeKind`` for every edge of the reduced tree.
    original_parent:
        For every node of the reduced tree, the *original* node that acts as
        its logical parent: for an original node this is its original parent;
        for an auxiliary node it is the high-degree node it was created for.
    aux_nodes:
        The set of auxiliary node ids that were introduced.
    threshold:
        The child-count threshold that was enforced.
    """

    tree: RootedTree
    edge_kinds: Dict[Tuple[Hashable, Hashable], str]
    original_parent: Dict[Hashable, Hashable]
    aux_nodes: set
    threshold: int

    @property
    def is_identity(self) -> bool:
        """True when no auxiliary nodes were needed."""
        return not self.aux_nodes

    def project_labels(
        self, labels: Dict[Tuple[Hashable, Hashable], Any]
    ) -> Dict[Tuple[Hashable, Hashable], Any]:
        """Restrict edge labels of the reduced tree to the original edges.

        An original edge ``(c, p)`` of the input tree may have been rerouted
        through auxiliary nodes as ``(c, aux_i)``; its label is the label of
        the reduced edge whose child endpoint is ``c`` (the label of an edge
        is the output of its child endpoint, so this is exactly the paper's
        projection).
        """
        out: Dict[Tuple[Hashable, Hashable], Any] = {}
        for (child, parent), lab in labels.items():
            if child in self.aux_nodes:
                continue
            orig_parent = self.original_parent.get(child, parent)
            out[(child, orig_parent)] = lab
        return out

    def project(
        self,
        edge_labels: Dict[Tuple[Hashable, Hashable], Any],
        node_labels: Dict[Hashable, Any],
        root_label: Any,
    ) -> Tuple[Dict[Tuple[Hashable, Hashable], Any], Dict[Hashable, Any]]:
        """Edge and node labels of a solve on the reduced tree, on the original tree.

        Edge labels go through :meth:`project_labels`; a node's label is the
        label of its (original) outgoing edge, and the root's is
        ``root_label``.  An identity reduction, or a solve that produced no
        labels, returns ``(edge_labels, node_labels)`` untouched.
        """
        if self.is_identity or not edge_labels:
            return edge_labels, node_labels
        projected = self.project_labels(edge_labels)
        nodes = {c: lab for (c, _p), lab in projected.items()}
        nodes[self.tree.root] = root_label
        return projected, nodes


def reduce_degrees(
    tree: RootedTree,
    threshold: int,
    edge_kinds: Optional[Dict[Tuple[Hashable, Hashable], str]] = None,
) -> DegreeReductionResult:
    """Split nodes with more than ``threshold`` children into O(1)-depth trees.

    The splitting mirrors the paper's O(1)-round MPC procedure: whenever a
    node has more than ``threshold`` children, the children are grouped into
    batches of at most ``threshold`` and every batch is attached to a fresh
    auxiliary node whose parent is the original node.  The procedure repeats
    (on the auxiliary nodes) until all degrees are at most ``threshold``; the
    number of repetitions is ``ceil(log_threshold(max_degree))`` = O(1).
    """
    if threshold < 2:
        raise ValueError("threshold must be at least 2")

    parent: Dict[Hashable, Hashable] = dict(tree.parent)
    kinds: Dict[Tuple[Hashable, Hashable], str] = {}
    for child, par in tree.parent.items():
        if child != tree.root:
            base_kind = EdgeKind.ORIGINAL
            if edge_kinds is not None:
                base_kind = edge_kinds.get((child, par), EdgeKind.ORIGINAL)
            kinds[(child, par)] = base_kind

    original_parent: Dict[Hashable, Hashable] = {
        v: (v if v == tree.root else tree.parent[v]) for v in tree.nodes()
    }
    aux_nodes: set = set()
    counter = 0

    # children map of the evolving reduced tree
    children: Dict[Hashable, List[Hashable]] = {v: list(tree.children(v)) for v in tree.nodes()}

    work = [v for v in tree.nodes() if len(children[v]) > threshold]
    # Each pass reduces the maximum degree by a factor of `threshold`, so the
    # loop runs O(log_threshold(max_degree)) = O(1) times.
    while work:
        next_work: List[Hashable] = []
        for u in work:
            kids = children[u]
            if len(kids) <= threshold:
                continue
            new_children: List[Hashable] = []
            for i in range(0, len(kids), threshold):
                batch = kids[i : i + threshold]
                if len(batch) == len(kids):
                    new_children.extend(batch)
                    continue
                aux = (AUX_PREFIX, _origin_of(u, original_parent), counter)
                counter += 1
                aux_nodes.add(aux)
                parent[aux] = u
                kinds[(aux, u)] = EdgeKind.AUXILIARY
                original_parent[aux] = _origin_of(u, original_parent)
                children[aux] = []
                for c in batch:
                    old_parent = parent[c]
                    old_kind = kinds.pop((c, old_parent))
                    parent[c] = aux
                    kinds[(c, aux)] = old_kind
                    children[aux].append(c)
                new_children.append(aux)
            children[u] = new_children
            if len(new_children) > threshold:
                next_work.append(u)
        work = next_work

    # Re-key edge payloads to the rerouted edges: the data of an original
    # edge (c, p) belongs to the logical connection between c and p, which in
    # the reduced tree is the edge from c to its (possibly auxiliary) new
    # parent — keeping the dict keyed by the old edge would silently drop
    # the payload (e.g. max-SAT clause weights) for every rerouted child.
    # Auxiliary-to-anything edges carry no payload.
    edge_data = {(c, parent[c]): data for (c, _p), data in tree.edge_data.items()}
    reduced = RootedTree(
        root=tree.root,
        parent=parent,
        node_data=dict(tree.node_data),
        edge_data=edge_data,
    )
    reduced.validate()
    return DegreeReductionResult(
        tree=reduced,
        edge_kinds=kinds,
        original_parent=original_parent,
        aux_nodes=aux_nodes,
        threshold=threshold,
    )


def _origin_of(u: Hashable, original_parent: Dict[Hashable, Hashable]) -> Hashable:
    """The original node an auxiliary node stands in for (or ``u`` itself)."""
    if isinstance(u, tuple) and len(u) == 3 and u[0] == AUX_PREFIX:
        return u[1]
    return u
