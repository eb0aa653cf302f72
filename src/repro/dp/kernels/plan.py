"""Compiled layer plans: one clustering, compiled once, shared by every problem.

The paper builds one hierarchical clustering and reuses it for every DP
problem; each layer's clusters are solved independently in O(1) rounds
(§1.4, §5).  A :class:`LayerPlan` is the problem-independent compile of one
such layer as a handful of flat arrays (struct-of-arrays), so the dense
backend can run both DP passes of a whole layer — or any row selection of
it: a pool slot's clusters, an update batch's dirty clusters, down to the
changed element paths inside them — as array programs instead of
per-cluster Python walks.

Per layer, with ``C`` clusters, ``E`` elements and ``K`` child slots:

* clusters (rows, in ``HierarchicalClustering.layers`` order): ``cids``,
  element offsets ``elem_ptr`` (``C + 1``), the ``top`` and ``hole`` element
  (``-1``: indegree zero), and the ``in_edge`` / ``out_edge`` indices;
* elements (each cluster's element tree in postorder): ``kind``
  (:data:`NODE`, :data:`MAT` for an indegree-one sub-cluster, :data:`LEAF`
  for an indegree-zero one), ``ref`` (node index resp. sub-cluster id), the
  element-tree ``height`` and the ``depth`` along the cluster's hole path
  (``-1`` off the path) with ``path_pos``, the child slot that lies on it;
* children in CSR form (``child_ptr``, ``child``, ``child_edge``) in the
  deterministic ``repr`` absorption order.  The hole pseudo-child is an
  explicit last slot (``child == HOLE_CHILD``) of the hole element, through
  the cluster's incoming edge;
* the clusters' internal edges in ``Cluster.internal_edges`` order
  (``ie_ptr``, ``ie_elem``, ``ie_edge``) — the order labels are reported in.

Node and edge indices share one index space: node ``i`` of the
(degree-reduced) tree, and the tree edge whose child endpoint is node ``i``.
A problem's labels live in one array over that index
(:mod:`repro.dp.kernels.labels`).

The :class:`ClusteringPlan` bundles a clustering's layer plans with the
payload cache: the :class:`~repro.dp.problem.NodeInput` /
:class:`~repro.dp.problem.EdgeInfo` objects the problems' rule hooks read.
Those bake tree payloads, so a payload mutator must call
:meth:`~repro.clustering.model.HierarchicalClustering.invalidate_payload_plans`
(the ``stale-cache-invalidation`` contract); the structural arrays never
change for the clustering's lifetime.  The plan is compiled on the first
solve (never inside ``prepare()``), cached on the clustering, and shipped to
exec workers with it — without the payload cache, which workers rebuild for
the rows they touch, and without the driver's indices: the
:class:`SeedIndex` the incremental update path seeds and relabels its
batches from, and the label views' :class:`~repro.dp.kernels.labels.LabelKeys`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    cast,
)

import numpy as np

from repro.clustering.degree_reduction import DegreeReductionResult
from repro.clustering.model import ClusterKind, HierarchicalClustering
from repro.dp.kernels.labels import LabelKeys
from repro.dp.problem import ClusterContext, EdgeInfo, NodeInput

__all__ = [
    "NODE",
    "MAT",
    "LEAF",
    "HOLE_CHILD",
    "LayerPlan",
    "ClusteringPlan",
    "SeedIndex",
    "LayerBatch",
    "clustering_plan",
    "compile_count",
]

#: Element kinds.
NODE, MAT, LEAF = 0, 1, 2
#: ``child`` entry of the hole pseudo-child slot.
HOLE_CHILD = -1

Edge = Tuple[Hashable, Hashable]
#: An element of the clustering: ``(layer, e)``, element index ``e`` of that
#: layer's :class:`LayerPlan`.
ElementAt = Tuple[int, int]

_compiles = 0

_first, _second, _third = itemgetter(0), itemgetter(1), itemgetter(2)


def compile_count() -> int:
    """Number of :class:`ClusteringPlan` compiles in this process so far."""
    return _compiles


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(starts[i], stops[i])`` over ``i``."""
    counts = stops - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(total, dtype=np.int64) + shift


def _offsets(counts: Any) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of per-row ``counts``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class LayerPlan:
    """Struct-of-arrays compile of one cluster layer (see module docstring)."""

    def __init__(self, hc: HierarchicalClustering, layer: int, index: Dict[Any, int]) -> None:
        i64 = np.int64
        self.layer = layer
        cids = hc.layers[layer]
        clusters = hc.clusters
        cs = [clusters[cid] for cid in cids]
        self.cids = np.asarray(cids, dtype=i64)
        self.row_of: Dict[int, int] = {cid: r for r, cid in enumerate(cids)}

        # Elements, each cluster's in ``Cluster.elements`` order (the passes
        # schedule by height and depth, never by position).
        elems = [e for c in cs for e in c.elements]
        E = len(elems)
        self.elem_ptr = _offsets([len(c.elements) for c in cs])
        eidx = dict(zip(elems, range(E)))
        is_node = np.fromiter(map("node".__eq__, map(_first, elems)), dtype=bool, count=E)
        second = list(map(_second, elems))
        nodes = np.flatnonzero(is_node)
        subs = np.flatnonzero(~is_node)
        sub_ids = [second[i] for i in subs.tolist()]
        self.ref = np.empty(E, dtype=i64)
        self.ref[nodes] = np.fromiter(
            map(index.__getitem__, [second[i] for i in nodes.tolist()]),
            dtype=i64,
            count=len(nodes),
        )
        self.ref[subs] = sub_ids
        self.kind = np.full(E, NODE, dtype=np.int8)
        indeg_one = ClusterKind.INDEGREE_ONE
        self.kind[subs] = [MAT if clusters[c].kind is indeg_one else LEAF for c in sub_ids]
        self.top = np.fromiter(
            map(eidx.__getitem__, [c.top_element for c in cs]), dtype=i64, count=len(cs)
        )
        self.hole = np.array(
            [-1 if c.hole_element is None else eidx[c.hole_element] for c in cs], dtype=i64
        )
        self.in_edge = np.array(
            [-1 if c.in_edge is None else index[c.in_edge[0]] for c in cs], dtype=i64
        )
        self.out_edge = np.fromiter(
            map(index.__getitem__, [c.out_edge[0] for c in cs]), dtype=i64, count=len(cs)
        )

        # Internal edges, in ``Cluster.internal_edges`` order.
        ies = [t for c in cs for t in c.internal_edges]
        K = len(ies)
        self.ie_ptr = _offsets([len(c.internal_edges) for c in cs])
        self.ie_elem = np.fromiter(map(eidx.__getitem__, map(_first, ies)), dtype=i64, count=K)
        ie_parent = np.fromiter(map(eidx.__getitem__, map(_second, ies)), dtype=i64, count=K)
        self.ie_edge = np.fromiter(
            map(index.__getitem__, map(_first, map(_third, ies))), dtype=i64, count=K
        )

        kids = np.bincount(ie_parent, minlength=E)
        self._check_elements(elems, kids)
        # Parent pointers (a top element points to itself) and each
        # element's distance below its cluster's top, by pointer jumping.
        parent = np.arange(E, dtype=i64)
        parent[self.ie_elem] = ie_parent
        below = (parent != np.arange(E)).astype(i64)
        jump = parent.copy()
        while True:
            nxt = jump[jump]
            below += below[jump]
            if np.array_equal(nxt, jump):
                break
            jump = nxt

        # Height: 1 + the tallest child, settled deepest level first.
        height = np.zeros(E, dtype=i64)
        order = np.argsort(-below, kind="stable")
        cuts = np.flatnonzero(np.diff(below[order])) + 1
        for level in np.split(order, cuts):
            if not len(level) or below[level[0]] == 0:
                break
            np.maximum.at(height, parent[level], height[level] + 1)
        self.height = height

        # Depth along each hole path, hole element first.
        depth = np.full(E, -1, dtype=i64)
        holes = self.hole[self.hole >= 0]
        cur, d = holes, 0
        while len(cur):
            depth[cur] = d
            cur = cur[parent[cur] != cur]
            cur, d = parent[cur], d + 1
        self.depth = depth

        # Child slots: each parent's children in the deterministic ``repr``
        # absorption order, then the hole pseudo-child (a hole element's
        # last slot, through the cluster's incoming edge).
        rank = np.zeros(K, dtype=i64)
        multi = np.flatnonzero(kids[ie_parent] >= 2)
        if len(multi):
            keys = np.array([repr(elems[c]) for c in self.ie_elem[multi].tolist()])
            by = multi[np.lexsort((keys, ie_parent[multi]))]
            rank[by] = np.arange(len(by)) - np.searchsorted(ie_parent[by], ie_parent[by])
        rows_with_hole = np.flatnonzero(self.hole >= 0)
        slot_parent = np.concatenate((ie_parent, holes))
        slot_child = np.concatenate((self.ie_elem, np.full(len(holes), HOLE_CHILD, dtype=i64)))
        slot_edge = np.concatenate((self.ie_edge, self.in_edge[rows_with_hole]))
        slot_rank = np.concatenate((rank, np.full(len(holes), K, dtype=i64)))
        by_slot = np.lexsort((slot_rank, slot_parent))
        self.slot_parent = slot_parent[by_slot]
        self.child = slot_child[by_slot]
        self.child_edge = slot_edge[by_slot]
        self.child_ptr = _offsets(np.bincount(slot_parent, minlength=E))

        # The on-path child slot of every hole-path element.
        path_pos = np.full(E, -1, dtype=i64)
        slots = np.arange(len(by_slot), dtype=i64) - self.child_ptr[self.slot_parent]
        real = self.child != HOLE_CHILD
        on = (depth[self.child] >= 0) & real
        on[real] &= depth[self.slot_parent[real]] == depth[self.child[real]] + 1
        path_pos[self.slot_parent[on]] = slots[on]
        path_pos[holes] = self.child_ptr[holes + 1] - self.child_ptr[holes] - 1
        self.path_pos = path_pos

    def _check_elements(self, elems: List[Any], kids: np.ndarray) -> None:
        """Reject sub-cluster elements whose element-tree shape is impossible."""
        is_hole = np.zeros(len(elems), dtype=bool)
        is_hole[self.hole[self.hole >= 0]] = True
        mat = self.kind == MAT
        for bad, what in (
            (mat & (kids > 1), "indegree-one sub-cluster {} must have exactly one child"),
            (
                mat & (kids == 0) & ~is_hole,
                "indegree-one sub-cluster {} has no child and is not the hole element",
            ),
            ((self.kind == LEAF) & (kids > 0), "indegree-zero sub-cluster {} has children"),
        ):
            if bad.any():
                raise RuntimeError(what.format(repr(elems[int(np.flatnonzero(bad)[0])])))

    @property
    def num_clusters(self) -> int:
        return len(self.cids)

    @property
    def num_elements(self) -> int:
        return len(self.kind)

    def rows_of(self, cids: Iterable[int]) -> np.ndarray:
        """Sorted cluster rows of ``cids`` (all of this layer's)."""
        row_of = self.row_of
        return np.sort(np.fromiter((row_of[c] for c in cids), dtype=np.int64))

    def elements_of(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of the clusters ``rows`` (ascending for sorted rows)."""
        return _ranges(self.elem_ptr[rows], self.elem_ptr[rows + 1])

    def element_rows(self, elements: np.ndarray) -> np.ndarray:
        """The cluster row of each of ``elements``."""
        return np.searchsorted(self.elem_ptr, elements, side="right") - 1

    def slots_of(self, elements: np.ndarray) -> np.ndarray:
        """Child slots of ``elements``, each element's in absorption order."""
        return _ranges(self.child_ptr[elements], self.child_ptr[elements + 1])

    def edge_slots_of(self, rows: np.ndarray) -> np.ndarray:
        """Internal-edge positions of the clusters ``rows``, in report order."""
        return _ranges(self.ie_ptr[rows], self.ie_ptr[rows + 1])


class ClusteringPlan:
    """A clustering's compiled layer plans plus its payload cache.

    ``reduction`` is the degree reduction the clustering was built on
    (``reduction.tree is hc.tree``); it is bound at compile time (one
    prepared tree, one clustering) and ships with the plan.
    """

    # Driver-only indices, built on first use; until then the class
    # defaults, so the pickle of a plan that never built them is the plain one.
    _seed_index: Optional["SeedIndex"] = None
    _label_keys: Optional[Tuple[LabelKeys, LabelKeys]] = None

    def __init__(self, hc: HierarchicalClustering, reduction: DegreeReductionResult) -> None:
        global _compiles
        _compiles += 1
        self.hc = hc
        self.reduction = reduction
        parent = hc.tree.parent
        self.node_ids: List[Hashable] = list(parent)
        self.node_index: Dict[Hashable, int] = {v: i for i, v in enumerate(self.node_ids)}
        self.layers: List[Optional[LayerPlan]] = [None] + [
            LayerPlan(hc, layer, self.node_index) for layer in range(1, hc.num_layers + 1)
        ]
        self._reset_payload_cache()

    def _reset_payload_cache(self) -> None:
        n = len(self.node_ids)
        self._node_inputs: List[Optional[NodeInput]] = [None] * n
        self._edge_infos: List[Optional[EdgeInfo]] = [None] * n

    # The payload cache is rebuilt where it is used (it bakes payloads and
    # would dominate the pickle); the structure ships as a few arrays.  The
    # seed index and the label keys serve only the driver.
    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_node_inputs"], state["_edge_infos"]
        state.pop("_seed_index", None)
        state.pop("_label_keys", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._reset_payload_cache()

    # -- payload cache ------------------------------------------------------ #

    def node_inputs(self, idx: np.ndarray) -> List[NodeInput]:
        """The cached :class:`NodeInput` of every node index in ``idx``."""
        cache = self._node_inputs
        ids = idx.tolist()
        out = [cache[i] for i in ids]
        missing = [k for k, inp in enumerate(out) if inp is None]
        if missing:
            data = self.hc.tree.node_data.get
            aux = self.reduction.aux_nodes
            for k in missing:
                i = ids[k]
                v = self.node_ids[i]
                out[k] = cache[i] = NodeInput(v, data(v), v in aux)
        return cast(List[NodeInput], out)

    def edge_infos(self, idx: np.ndarray) -> List[EdgeInfo]:
        """The cached :class:`EdgeInfo` of every edge index in ``idx``."""
        cache = self._edge_infos
        ids = idx.tolist()
        out = [cache[i] for i in ids]
        missing = [k for k, info in enumerate(out) if info is None]
        if missing:
            tree = self.hc.tree
            data = tree.edge_data.get
            kinds = self.reduction.edge_kinds.get
            for k in missing:
                i = ids[k]
                v = self.node_ids[i]
                edge = (v, tree.parent[v])
                out[k] = cache[i] = EdgeInfo(edge, kinds(edge, "original"), data(edge))
        return cast(List[EdgeInfo], out)

    def invalidate_payload_plans(
        self,
        nodes: Optional[Iterable[Hashable]] = None,
        edges: Optional[Iterable[Edge]] = None,
    ) -> None:
        """Drop cached payload inputs: of ``nodes`` / ``edges``, or all of them."""
        if nodes is None and edges is None:
            self._reset_payload_cache()
            return
        index = self.node_index
        for v in nodes or ():
            self._node_inputs[index[v]] = None
        for edge in edges or ():
            self._edge_infos[index[edge[0]]] = None

    def seed_index(self) -> "SeedIndex":
        """The :class:`SeedIndex` of this plan, built on first use."""
        if self._seed_index is None:
            self._seed_index = SeedIndex(self)
        return self._seed_index

    def label_keys(self) -> Tuple[LabelKeys, LabelKeys]:
        """Label keys of the reduced tree and of the original tree (built once).

        The reduced tree's keys are the node index itself.  The original
        tree's leave out the degree reduction's auxiliary nodes and key each
        edge by its original parent; for an identity reduction they are the
        reduced tree's.
        """
        if self._label_keys is None:
            tree = self.hc.tree
            n = len(self.node_ids)
            reduced = LabelKeys(
                self.node_ids, np.arange(n, dtype=np.int64), self.node_index, tree.parent, tree.root
            )
            original = reduced
            aux = self.reduction.aux_nodes
            if aux:
                nodes = [v for v in self.node_ids if v not in aux]
                index = self.node_index
                pos = np.fromiter(map(index.__getitem__, nodes), dtype=np.int64, count=len(nodes))
                at = dict(zip(nodes, pos.tolist()))
                original = LabelKeys(nodes, pos, at, self.reduction.original_parent, tree.root)
            self._label_keys = (reduced, original)
        return self._label_keys

    # -- batches ------------------------------------------------------------ #

    def batch(
        self,
        layer: int,
        cids: Optional[Iterable[int]],
        summaries: Mapping[int, Any],
        sizer: Optional[Callable[[Any], int]] = None,
        dirty: Optional[np.ndarray] = None,
    ) -> "LayerBatch":
        """A :class:`LayerBatch` of ``cids`` (``None``: the whole layer)."""
        lp = self.layers[layer]
        assert lp is not None
        rows = (
            np.arange(lp.num_clusters, dtype=np.int64) if cids is None else lp.rows_of(cids)
        )
        return LayerBatch(self, lp, rows, summaries, sizer, dirty)


class SeedIndex:
    """Where a payload write or a changed summary enters a pass.

    Elements are :data:`ElementAt` pairs ``(layer, e)``.  Derived from the
    plan's structural arrays on the driver, on first use, and never
    pickled (the incremental update path is its only reader):

    * ``node_at[i]``: the node element of node ``i``, the one element whose
      tables read the node's payload;
    * ``absorbed_at[cid]``: the sub-cluster element (``LEAF`` / ``MAT``) that
      absorbs cluster ``cid`` (``(-1, -1)`` for the final cluster);
    * ``edge_at[edge_ptr[i]:edge_ptr[i + 1]]``: the slot parent of every
      child slot through edge ``i``: the edge's internal slot, and the hole
      slot of each nested indegree-one cluster the edge enters;
    * ``parent[layer][e]``: the parent of element ``e`` inside its cluster
      (``-1`` at the top), from the ``child`` / ``slot_parent`` CSR;
    * ``parent_cluster[cid]``: the cluster absorbing ``cid`` (``-1`` for
      the final cluster);
    * ``bound_at[bound_ptr[i]:bound_ptr[i + 1]]``: the ``(layer, cid)`` of
      every cluster having edge ``i`` as its out-edge or in-edge — the
      clusters whose top-down pass reads the edge's label.  The final
      cluster's virtual out-edge is not indexed: the update path relabels
      the final cluster whenever it re-solves it, the only time the root
      label can change.
    """

    def __init__(self, plan: ClusteringPlan) -> None:
        i64 = np.int64
        self.plan = plan
        n = len(plan.node_ids)
        C = len(plan.hc.clusters)
        self.node_at = np.full((n, 2), -1, dtype=i64)
        self.absorbed_at = np.full((C, 2), -1, dtype=i64)
        self.parent_cluster = np.full(C, -1, dtype=i64)
        self.parent: List[Optional[np.ndarray]] = [None]
        slot_edge: List[np.ndarray] = []
        slot_at: List[np.ndarray] = []
        bound_edge: List[np.ndarray] = []
        bound_at: List[np.ndarray] = []
        final = plan.hc.final_cluster_id
        for lp in plan.layers[1:]:
            assert lp is not None
            at = np.empty((lp.num_elements, 2), dtype=i64)
            at[:, 0] = lp.layer
            at[:, 1] = np.arange(lp.num_elements)
            node = lp.kind == NODE
            self.node_at[lp.ref[node]] = at[node]
            subs = lp.ref[~node]
            self.absorbed_at[subs] = at[~node]
            self.parent_cluster[subs] = lp.cids[lp.element_rows(np.flatnonzero(~node))]
            parent = np.full(lp.num_elements, -1, dtype=i64)
            real = lp.child != HOLE_CHILD
            parent[lp.child[real]] = lp.slot_parent[real]
            self.parent.append(parent)
            slot_edge.append(lp.child_edge)
            slot_at.append(at[lp.slot_parent])
            outs = np.flatnonzero(lp.cids != final)
            ins = np.flatnonzero(lp.in_edge >= 0)
            rows = np.concatenate((outs, ins))
            bound_edge.append(np.concatenate((lp.out_edge[outs], lp.in_edge[ins])))
            bound_at.append(np.stack((np.full(len(rows), lp.layer, dtype=i64), lp.cids[rows]), 1))
        self.edge_ptr, self.edge_at = _csr(slot_edge, slot_at, n)
        self.bound_ptr, self.bound_at = _csr(bound_edge, bound_at, n)

    def node(self, v: Hashable) -> ElementAt:
        """The element whose tables read node ``v``'s payload."""
        layer, e = self.node_at[self.plan.node_index[v]].tolist()
        return layer, e

    def edge(self, child: Hashable) -> List[ElementAt]:
        """The elements whose tables read the payload of the edge above ``child``."""
        i = self.plan.node_index[child]
        at = self.edge_at[self.edge_ptr[i] : self.edge_ptr[i + 1]].tolist()
        return [(layer, e) for layer, e in at]

    def absorber(self, cid: int) -> ElementAt:
        """The element whose tables read cluster ``cid``'s summary."""
        layer, e = self.absorbed_at[cid].tolist()
        return layer, e

    def clusters(self, elements: Iterable[ElementAt]) -> Set[int]:
        """Ids of the clusters holding ``elements``."""
        at = np.array(list(elements), dtype=np.int64).reshape(-1, 2)
        out: Set[int] = set()
        for layer in np.unique(at[:, 0]).tolist():
            lp = self.plan.layers[layer]
            assert lp is not None
            out.update(lp.cids[lp.element_rows(at[at[:, 0] == layer, 1])].tolist())
        return out

    def paths(self, layer: int, elements: np.ndarray) -> np.ndarray:
        """``elements`` of ``layer`` and their ancestors inside their clusters
        (ascending): every element whose tables depend on theirs."""
        parent = self.parent[layer]
        assert parent is not None
        return np.flatnonzero(_upward(parent, np.asarray(elements, dtype=np.int64)))

    def closure_size(self, cids: Iterable[int]) -> int:
        """Number of clusters in ``cids`` or on their absorption chains."""
        return int(np.count_nonzero(_upward(self.parent_cluster, np.fromiter(cids, np.int64))))

    def dependents(self, edges: np.ndarray) -> np.ndarray:
        """``(layer, cid)`` rows of the clusters whose boundary is one of ``edges``."""
        return self.bound_at[_ranges(self.bound_ptr[edges], self.bound_ptr[edges + 1])]


def _csr(keys: List[np.ndarray], rows: List[np.ndarray], n: int) -> Tuple[np.ndarray, np.ndarray]:
    """CSR offsets over ``0..n-1`` and the ``rows`` grouped by their ``keys``."""
    key = np.concatenate(keys)
    order = np.argsort(key, kind="stable")
    return _offsets(np.bincount(key, minlength=n)), np.concatenate(rows)[order]


def _upward(parent: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of ``start`` and every index above it along ``parent`` (-1: none)."""
    seen = np.zeros(len(parent), dtype=bool)
    cur = start
    while len(cur):
        seen[cur] = True
        cur = parent[cur]
        cur = cur[cur >= 0]
        cur = cur[~seen[cur]]
    return seen


class LayerBatch:
    """A row selection of one layer: the unit a layer solve works on.

    ``rows`` are sorted cluster rows of ``layer``; ``summaries`` maps cluster
    ids to summaries and must hold every sub-cluster the rows absorb.
    ``sizer`` prices one routed record (``None``: no word accounting).
    ``dirty`` lists the elements of the rows whose inputs changed since the
    rows were last solved (a payload, a sub-cluster summary); ``None``
    means every element.  A solver may re-solve only those elements and
    their ancestors, or ignore it and solve whole rows.
    """

    def __init__(
        self,
        plan: ClusteringPlan,
        layer: LayerPlan,
        rows: np.ndarray,
        summaries: Mapping[int, Any],
        sizer: Optional[Callable[[Any], int]] = None,
        dirty: Optional[np.ndarray] = None,
    ) -> None:
        self.plan = plan
        self.layer = layer
        self.rows = rows
        self.summaries = summaries
        self.sizer = sizer
        self.dirty = dirty
        self._elements: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def cids(self) -> List[int]:
        """Cluster ids of the rows, in row order."""
        return [int(c) for c in self.layer.cids[self.rows].tolist()]

    @property
    def elements(self) -> np.ndarray:
        """Element indices of the rows (ascending)."""
        if self._elements is None:
            self._elements = self.layer.elements_of(self.rows)
        return self._elements

    @property
    def edge_index(self) -> np.ndarray:
        """Edge indices of the rows' internal edges, in ``Cluster.internal_edges``
        order (the order labels are reported in)."""
        lp = self.layer
        return lp.ie_edge[lp.edge_slots_of(self.rows)]

    def select(self, rows: np.ndarray) -> "LayerBatch":
        """The sub-batch of ``rows`` (sorted rows of the same layer, whole)."""
        return LayerBatch(self.plan, self.layer, rows, self.summaries, self.sizer)

    def edge_positions(self, sub: "LayerBatch") -> np.ndarray:
        """Where the edges of ``sub`` (a :meth:`select` of this batch) sit in
        :attr:`edge_index`."""
        lp = self.layer
        slots = lp.edge_slots_of(self.rows)
        at = np.empty(int(lp.ie_ptr[-1]), dtype=np.int64)
        at[slots] = np.arange(len(slots))
        return at[lp.edge_slots_of(sub.rows)]

    def sub_clusters(self) -> List[int]:
        """Ids of the sub-clusters the rows absorb (their summaries are read)."""
        lp = self.layer
        el = self.elements
        return [int(c) for c in lp.ref[el[lp.kind[el] != NODE]].tolist()]

    def words(self, records: Iterable[Any]) -> int:
        """Per-record routed words of ``records`` (0 without a sizer)."""
        sizer = self.sizer
        if sizer is None:
            return 0
        return sum(sizer(r) for r in records)

    def contexts(self) -> List[ClusterContext]:
        """One :class:`ClusterContext` per row (the reference backends' input)."""
        plan = self.plan
        clusters = plan.hc.clusters
        summaries = self.summaries
        reduction = plan.reduction
        return [ClusterContext(clusters[cid], summaries, clusters, reduction) for cid in self.cids]


def clustering_plan(hc: HierarchicalClustering, reduction: DegreeReductionResult) -> ClusteringPlan:
    """The clustering's :class:`ClusteringPlan`, compiled on first use.

    Cached on the clustering, so every engine, problem and pass of one
    prepared tree shares a single compile.
    """
    plan = hc._dp_plan
    if plan is None:
        plan = ClusteringPlan(hc, reduction)
        hc._dp_plan = plan
    return plan
