"""Layer-native dense solver: both DP passes as per-level array programs.

Mirrors the scalar :class:`~repro.dp.local_solver.FiniteStateClusterSolver`
element-tree walk over a whole layer batch at once — all of a layer's
clusters, or a row selection of them (a pool slot's clusters, an update
batch's dirty clusters) — reading the structure from the compiled
:class:`~repro.dp.kernels.plan.LayerPlan`:

* **Hole batching.**  Every element on the hole path of an indegree-one
  cluster carries one table row per hole state (``H = S`` rows), so one pass
  produces the full (top state × below state) summary matrix; elements off
  the hole paths carry a single row.  Rows are flat per layer — an element
  owns one or ``H`` consecutive rows of the layer's table — so off-path
  elements are never padded to the hole batch.
* **Batched semiring steps.**  Absorbing one child is one broadcast +
  reduction over a ``(n, h, A, S, A')`` candidate array; arg-reductions over
  the flattened ``(A * S)`` axis recover backpointers, and their
  first-optimum tie-break equals the scalar path's first-wins merge over the
  same (acc-major, child-state-minor) order.  Floats associate as
  ``acc ⊗ (child ⊗ T)``, exactly like the scalar ``times(a, times(c, t))``.
* **Level scheduling.**  Off-path elements are grouped by element-tree
  height and by rule signature (the problem's cache keys), hole-path
  elements by depth along the path, the on-path child slot and signature;
  each group is one stacked kernel call that gathers its child rows by
  index.  Affine rule decompositions let nodes whose rules differ only in a
  weight vector share a group (``base + Σ_k w_k * mask_k``).
* **Array top-down.**  Backpointers are written during the bottom-up pass
  into per-layer arrays; the labeling pass walks the batch one height level
  at a time, from the top elements down, with array gathers.

Summaries are ``{"kind": "vec"|"mat", "dense": ndarray}``; ``vec`` is a
``(S,)`` vector over top-node states, ``mat`` a ``(S, S)`` matrix over (top
state, below state).  Infeasible cells hold the semiring zero, which is what
dict-table summaries express by omission, so
:func:`~repro.dp.kernels.statespace.summary_as_dict` normalises both forms
to equal dicts.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dp.kernels.plan import (
    HOLE_CHILD,
    LEAF,
    MAT,
    NODE,
    ClusteringPlan,
    LayerBatch,
    LayerPlan,
)
from repro.dp.kernels.semiring_kernels import SemiringKernel, kernel_for
from repro.dp.kernels.statespace import StateSpace, encode_mat, encode_vec
from repro.dp.kernels.tensors import ProblemTensors
from repro.dp.problem import EdgeInfo, FiniteStateDP, NodeInput

__all__ = ["DenseClusterKernel"]

#: Backpointer dtype: flat (acc, child-state) ids and state ids are small.
_BP = np.int32

Sizer = Callable[[Any], int]


class _LayerStore:
    """One problem's bottom-up state of one layer: tables and backpointers.

    ``vals[rbase[e] + r]`` is element ``e``'s table row ``r`` (``r`` = hole
    state on a hole path, else 0); ``bp`` holds, per row, the finalize
    choice (node elements) or the below state (indegree-one sub-cluster
    elements); ``steps[sbase[k] + r]`` the flat (acc, child state) choice of
    child slot ``k``.  Sized by the layer plan once, so the store cannot
    grow; batches overwrite their clusters' rows and mark them ``valid``.
    """

    __slots__ = ("rbase", "vals", "bp", "sbase", "steps", "valid")

    def __init__(
        self, lp: LayerPlan, H: int, S: int, A: int, dtype: np.dtype, selective: bool
    ) -> None:
        nrows = np.where(lp.depth >= 0, H, 1)
        self.rbase = np.cumsum(nrows) - nrows
        R = int(nrows.sum())
        self.vals = np.empty((R, S), dtype=dtype)
        self.valid = np.zeros(lp.num_clusters, dtype=bool)
        srows = nrows[lp.slot_parent]
        self.sbase = np.cumsum(srows) - srows
        if selective:
            self.bp = np.empty((R, S), dtype=_BP)
            self.steps = np.empty((int(srows.sum()), A), dtype=_BP)
        else:
            self.bp = np.empty((0, S), dtype=_BP)
            self.steps = np.empty((0, A), dtype=_BP)

    @property
    def nbytes(self) -> int:
        return int(self.vals.nbytes + self.bp.nbytes + self.steps.nbytes)


class DenseClusterKernel:
    """Dense implementation of the layer-batch operations of one problem."""

    def __init__(self, problem: FiniteStateDP) -> None:
        kernel = kernel_for(problem.semiring)
        if kernel is None:
            raise ValueError(
                f"{problem.name}: semiring {problem.semiring.name!r} has no dense kernel"
            )
        if getattr(problem, "acc_states", None) is None:
            raise ValueError(f"{problem.name}: acc_states not declared; dense path unavailable")
        self.problem = problem
        self.kernel: SemiringKernel = kernel
        self.sspace = StateSpace(problem.states)
        self.aspace = StateSpace(problem.acc_states)
        self.tensors = ProblemTensors(problem, kernel, self.sspace, self.aspace)
        self.selective = problem.semiring.selective
        # Hoisted hook-override flags (hot in _node_signature).
        self._trans_affine = self.tensors.has_transition_affine
        self._fin_affine = self.tensors.has_finalize_affine
        # The hole pseudo-child's table: row h is the identity vector of
        # hole state h, so one pass covers every hole state.
        S = len(self.sspace)
        eye = self.kernel.full((S, S))
        np.fill_diagonal(eye, self.kernel.one)
        self._hole_batch = eye
        self._hrange = np.arange(S, dtype=np.int64)
        self._states = np.empty(S, dtype=object)
        for i, state in enumerate(self.sspace.states):
            self._states[i] = state
        #: Per-layer bottom-up state (tables + backpointers) of the plan the
        #: last batch came from.  Persistent across solves on purpose: the
        #: incremental update path re-solves a few clusters' rows and later
        #: relabels untouched clusters from the rows the last solve wrote,
        #: which stay consistent because a cluster is only skipped by the
        #: partial bottom-up when neither its payloads nor its element
        #: summaries changed.
        self._plan: Optional[ClusteringPlan] = None
        self._stores: Dict[int, _LayerStore] = {}
        self._costs: Dict[Sizer, Tuple[int, int, np.ndarray]] = {}
        #: Clusters labeled from stored backpointers / after re-running
        #: their bottom-up rows (a pool worker respawned mid-solve).
        self.trace_hits: int = 0
        self.trace_misses: int = 0

    # ------------------------------------------------------------------ #
    # Caches and observability
    # ------------------------------------------------------------------ #

    def trace_store_bytes(self) -> int:
        """Bytes held by the per-layer tables and backpointers."""
        return sum(st.nbytes for st in self._stores.values())

    def cache_stats(self) -> Dict[str, int]:
        """Flat cache-behaviour counters for the observability gauges.

        Covers the backpointer store (size, hits/misses), the payload-value
        keyed rule caches on :attr:`tensors`, and the tensor
        enumeration/recompose counters.
        """
        t = self.tensors
        out: Dict[str, int] = {
            "trace_bytes": self.trace_store_bytes(),
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "value_entries": sum(t.value_cache_sizes().values()),
            "value_hits": t.value_cache_hits(),
            "value_misses": t.value_cache_misses(),
            "value_evictions": t.value_cache_evictions(),
        }
        out.update(t.stats)
        return out

    def _store(self, batch: LayerBatch) -> _LayerStore:
        if self._plan is not batch.plan:
            self._plan = batch.plan
            self._stores = {}
        lp = batch.layer
        st = self._stores.get(lp.layer)
        if st is None:
            S = len(self.sspace)
            st = _LayerStore(lp, S, S, len(self.aspace), self.kernel.dtype, self.selective)
            self._stores[lp.layer] = st
        return st

    def _word_costs(self, sizer: Sizer) -> Tuple[int, int, np.ndarray]:
        """Words of one vec summary, one mat summary, and of each state label."""
        costs = self._costs.get(sizer)
        if costs is None:
            S = len(self.sspace)
            costs = (
                int(sizer({"kind": "vec", "dense": self.kernel.full(S)})),
                int(sizer({"kind": "mat", "dense": self.kernel.full((S, S))})),
                np.array([sizer(s) for s in self.sspace.states], dtype=np.int64),
            )
            self._costs[sizer] = costs
        return costs

    # ------------------------------------------------------------------ #
    # Layer operations
    # ------------------------------------------------------------------ #

    def summarize_layer(self, batch: LayerBatch) -> Tuple[List[Any], int]:
        """Summaries of the batch's clusters (row order) and their words."""
        st = self._store(batch)
        self._bottom_up(batch, st)
        st.valid[batch.rows] = True
        return self._summaries(batch, st), self.summary_words(batch)

    def summary_words(self, batch: LayerBatch) -> int:
        """Routed words of the batch's summaries, from their shapes."""
        if batch.sizer is None:
            return 0
        w_vec, w_mat, _ = self._word_costs(batch.sizer)
        n_mat = int(np.count_nonzero(batch.layer.hole[batch.rows] >= 0))
        return n_mat * w_mat + (len(batch.rows) - n_mat) * w_vec

    def label_virtual_root(self, summary: Any) -> Tuple[Any, Any]:
        vec = self._dense_vec(summary)
        totals = self.kernel.combine(vec, self.tensors.virtual_root_vec())
        if self.selective:
            idx = int(self.kernel.argreduce_flat(totals))
            val = totals[idx]
            if val == self.kernel.zero:
                raise ValueError(f"{self.problem.name}: no feasible solution exists")
            return self.sspace.decode(idx), val.item()
        return None, self.kernel.reduce(totals, axis=0).item()

    def label_layer(
        self, batch: LayerBatch, out_labels: Sequence[Any], in_labels: Sequence[Any]
    ) -> Tuple[List[Any], int]:
        """Labels of the batch's internal edges (``batch.edges`` order) and words.

        Walks the batch's elements one height level at a time from the top
        elements down, replaying the stored backpointers with array gathers.
        Rows whose backpointers this kernel does not hold (a pool worker
        respawned after the bottom-up pass) are re-solved first.
        """
        st = self._store(batch)
        lp = batch.layer
        rows = batch.rows
        stale = ~st.valid[rows]
        n_stale = int(np.count_nonzero(stale))
        if n_stale:
            sub = batch.select(rows[stale])
            self._bottom_up(sub, st)
            st.valid[sub.rows] = True
        self.trace_misses += n_stale
        self.trace_hits += len(rows) - n_stale

        index = self.sspace.index
        out_idx = np.fromiter((index[lab] for lab in out_labels), np.int64, len(rows))
        in_idx = np.fromiter(
            (0 if lab is None else index[lab] for lab in in_labels), np.int64, len(rows)
        )
        el = batch.elements
        counts = lp.elem_ptr[rows + 1] - lp.elem_ptr[rows]
        hrow = np.where(lp.depth[el] >= 0, np.repeat(in_idx, counts), 0)
        state = np.empty(lp.num_elements, dtype=np.int64)
        state[lp.top[rows]] = out_idx

        height = lp.height[el]
        order = np.argsort(-height, kind="stable")
        cuts = np.flatnonzero(np.diff(height[order])) + 1
        zero = self.kernel.zero
        for q in np.split(order, cuts):
            e = el[q]
            kind = lp.kind[e]
            inner = kind != LEAF  # sub-cluster leaves have no internal children
            e, r_h = e[inner], hrow[q][inner]
            if not len(e):
                continue
            s = state[e]
            r = st.rbase[e] + r_h
            bad = st.vals[r, s] == zero
            if bad.any():
                i = int(np.flatnonzero(bad)[0])
                raise RuntimeError(
                    f"inconsistent traceback: state {self._states[s[i]]!r} unreachable "
                    f"at element {self._element(batch.plan, lp, int(e[i]))!r}"
                )
            is_node = kind[inner] == NODE
            if is_node.any():
                self._replay_steps(lp, st, e[is_node], r_h[is_node], st.bp[r, s][is_node], state)
            is_mat = ~is_node
            if is_mat.any():
                ch = lp.child[lp.child_ptr[e[is_mat]]]
                below = st.bp[r[is_mat], s[is_mat]]
                real = ch != HOLE_CHILD
                state[ch[real]] = below[real]

        idx = state[lp.ie_elem[lp.edge_slots_of(rows)]]
        words = 0
        if batch.sizer is not None:
            words = int(self._word_costs(batch.sizer)[2][idx].sum())
        return self._states[idx].tolist(), words

    def _replay_steps(
        self,
        lp: LayerPlan,
        st: _LayerStore,
        nodes: np.ndarray,
        r_h: np.ndarray,
        acc: np.ndarray,
        state: np.ndarray,
    ) -> None:
        """Child states of ``nodes`` from their step backpointers (last child first)."""
        S = len(self.sspace)
        acc = acc.astype(np.int64)
        start = lp.child_ptr[nodes]
        d = lp.child_ptr[nodes + 1] - start
        for t in range(int(d.max(initial=0))):
            act = np.flatnonzero(d > t)
            slot = start[act] + d[act] - 1 - t
            flat = st.steps[st.sbase[slot] + r_h[act], acc[act]]
            acc[act] = flat // S
            ch = lp.child[slot]
            real = ch != HOLE_CHILD
            state[ch[real]] = (flat % S)[real]

    @staticmethod
    def _element(plan: ClusteringPlan, lp: LayerPlan, e: int) -> Tuple[str, Hashable]:
        """The element tuple of element index ``e`` (error messages)."""
        if lp.kind[e] == NODE:
            return ("node", plan.node_ids[int(lp.ref[e])])
        return ("cluster", int(lp.ref[e]))

    # ------------------------------------------------------------------ #
    # Bottom-up pass
    # ------------------------------------------------------------------ #

    def _bottom_up(self, batch: LayerBatch, st: _LayerStore) -> None:
        """Fill the tables (and backpointers) of every element of the batch."""
        lp = batch.layer
        el = batch.elements
        kind = lp.kind[el]
        leaves = el[kind == LEAF]
        if len(leaves):
            st.vals[st.rbase[leaves]] = self._gather(batch.summaries, lp.ref[leaves], False)
        nodes = el[kind == NODE]
        mats = el[kind == MAT]
        groups = _NodeGroups(self, batch, nodes)
        # Off the hole paths, a level is an element-tree height (dependencies
        # sit strictly lower).  On them — once every off-path table is in
        # place — a level is the depth along the path: an element only waits
        # for the previous element of its own path.
        for on_path in (False, True):
            m = mats[(lp.depth[mats] >= 0) == on_path]
            pos = np.flatnonzero((lp.depth[nodes] >= 0) == on_path)
            e = nodes[pos]
            level = lp.depth if on_path else lp.height
            todo: Dict[int, List[Tuple[np.ndarray, Any]]] = {}
            for (lv,), idx in _runs(level[m]):
                todo.setdefault(lv, []).append((m[idx], None))
            for (lv, j, gid), idx in _runs(level[e], lp.path_pos[e], groups.gid[pos]):
                todo.setdefault(lv, []).append((pos[idx], (gid, j)))
            for lv in sorted(todo):
                for members, key in todo[lv]:
                    if key is None:
                        self._mat_group(batch, st, members, on_path)
                    else:
                        groups.solve(st, members, key[0], key[1])

    def _mat_group(
        self, batch: LayerBatch, st: _LayerStore, mem: np.ndarray, on_path: bool
    ) -> None:
        """One stacked solve for indegree-one sub-cluster elements."""
        lp = batch.layer
        kernel = self.kernel
        mats = self._gather(batch.summaries, lp.ref[mem], True)  # (n, S_top, S_below)
        ch = lp.child[lp.child_ptr[mem]]
        if not on_path:
            below = st.vals[st.rbase[ch]][:, None, :]  # (n, 1, S)
            rows = st.rbase[mem][:, None]
        else:
            if ch[0] == HOLE_CHILD:  # depth 0: the hole attaches here
                below = self._hole_batch[None]
            else:
                below = st.vals[st.rbase[ch][:, None] + self._hrange]
            rows = st.rbase[mem][:, None] + self._hrange
        cand = kernel.combine(mats[:, None, :, :], below[:, :, None, :])  # (n, h, S, S)
        st.vals[rows] = kernel.reduce(cand, axis=3)
        if self.selective:
            st.bp[rows] = kernel.argreduce(cand, axis=3)

    def _node_signature(
        self, inp: NodeInput, edges: Sequence[EdgeInfo], lo: int, hi: int
    ) -> Tuple[Optional[Tuple[Any, ...]], Any]:
        """Structural signature grouping nodes with identical rule tensors.

        ``edges[lo:hi]`` are the node's child edges in absorption order.
        Returns ``(sig, aff)``: nodes share a group iff their ``sig`` is
        equal (``None``: a rule has no cache key); ``aff`` is ``None`` or
        ``(fin_w, trans_ws)``, the per-node affine weights — finalize
        weight(s) and, when any child's transition is affine, one weight
        vector per child (``None`` where the plain key cache applies).
        """
        problem = self.problem
        init_key = problem.init_key(inp)
        if init_key is None:
            return None, None
        tparts: Tuple[Any, ...] = ()
        tws: Optional[Tuple[Optional[Tuple[float, ...]], ...]] = None
        if hi > lo:
            parts = []
            ws: List[Optional[Tuple[float, ...]]] = []
            for j in range(lo, hi):
                edge = edges[j]
                ta = problem.transition_affine_key(inp, edge) if self._trans_affine else None
                if ta is not None:
                    parts.append(("ta", ta[0]))
                    ws.append(tuple(ta[1]))
                    continue
                tk = problem.transition_key(inp, edge)
                if tk is None:
                    return None, None
                parts.append(("tk", tk))
                ws.append(None)
            tparts = tuple(parts)
            if any(w is not None for w in ws):
                tws = tuple(ws)
        if self._fin_affine:
            aff = problem.finalize_affine_key(inp)
            if aff is not None:
                return ("a", aff[0], init_key, tparts), (aff[1], tws)
        fin_key = problem.finalize_key(inp)
        if fin_key is None:
            return None, None
        return ("e", fin_key, init_key, tparts), (None if tws is None else (None, tws))

    def _summaries(self, batch: LayerBatch, st: _LayerStore) -> List[Any]:
        """Per-cluster summary records (row order) read off the top rows."""
        lp = batch.layer
        tops = lp.top[batch.rows]
        is_mat = lp.hole[batch.rows] >= 0
        out: List[Any] = [None] * len(tops)
        pos = np.flatnonzero(is_mat)
        if len(pos):
            # Top rows [h, a] (hole state h, top state a) -> mat[a, b=h].
            rows = st.rbase[tops[pos]][:, None] + self._hrange
            mats = np.ascontiguousarray(st.vals[rows].transpose(0, 2, 1))
            for i, k in enumerate(pos.tolist()):
                out[k] = {"kind": "mat", "dense": mats[i]}
        pos = np.flatnonzero(~is_mat)
        if len(pos):
            vecs = st.vals[st.rbase[tops[pos]]]
            for i, k in enumerate(pos.tolist()):
                out[k] = {"kind": "vec", "dense": vecs[i]}
        return out

    def _gather(self, summaries: Any, cids: np.ndarray, mat: bool) -> np.ndarray:
        """Stacked dense summaries of sub-clusters ``cids``."""
        dense = self._dense_mat if mat else self._dense_vec
        return np.stack([dense(summaries[c]) for c in cids.tolist()])

    def _dense_vec(self, summary: Any) -> np.ndarray:
        if "dense" in summary:
            return summary["dense"]
        # Interop: a scalar-path summary consumed by the dense solver.
        return encode_vec(summary["table"], self.sspace, self.kernel.zero, self.kernel.dtype)

    def _dense_mat(self, summary: Any) -> np.ndarray:
        if "dense" in summary:
            return summary["dense"]
        return encode_mat(summary["table"], self.sspace, self.kernel.zero, self.kernel.dtype)


class _NodeGroups:
    """Node elements of one batch with their rule signatures and inputs.

    ``gid[i]`` is the signature group of ``nodes[i]``; nodes without a
    cacheable signature get a group of their own.
    """

    def __init__(self, dense: DenseClusterKernel, batch: LayerBatch, nodes: np.ndarray) -> None:
        self.dense = dense
        self.batch = batch
        self.nodes = nodes
        lp = batch.layer
        plan = batch.plan
        self.inputs = plan.node_inputs(lp.ref[nodes])
        counts = lp.child_ptr[nodes + 1] - lp.child_ptr[nodes]
        #: Offset of each node's first child edge in :attr:`edges`.
        self.eoff = np.cumsum(counts) - counts
        self.edges = plan.edge_infos(lp.child_edge[lp.slots_of(nodes)])
        self.sigs: List[Optional[Tuple[Any, ...]]] = []
        self.affs: List[Any] = []
        known: Dict[Tuple[Any, ...], int] = {}
        signature = dense._node_signature
        edges = self.edges
        sigs = self.sigs
        gids: List[int] = []
        k = 0
        for inp, d in zip(self.inputs, counts.tolist()):
            sig, aff = signature(inp, edges, k, k + d)
            k += d
            if sig is None:
                g = len(sigs)
                sigs.append(None)
            else:
                g = known.setdefault(sig, len(sigs))
                if g == len(sigs):
                    sigs.append(sig)
            gids.append(g)
            self.affs.append(aff)
        self.gid = np.array(gids, dtype=np.int64)

    def solve(self, st: _LayerStore, pos: np.ndarray, gid: int, path_j: int) -> None:
        """Solve the nodes at positions ``pos`` (one group) with one stacked program.

        ``path_j`` is the child slot carrying the ``H`` hole rows (-1: an
        off-path group).
        """
        sig = self.sigs[gid]
        if sig is None:
            for p in pos.tolist():
                self._solve(st, np.array([p]), None, path_j)
        elif not self._solve(st, pos, sig, path_j):
            # The structural key turned out not to be affine: per node.
            for p in pos.tolist():
                self._solve(st, np.array([p]), None, path_j)

    def _solve(
        self, st: _LayerStore, pos: np.ndarray, sig: Optional[Tuple[Any, ...]], path_j: int
    ) -> bool:
        dense = self.dense
        kernel = dense.kernel
        tensors = dense.tensors
        selective = dense.selective
        combine, reduce_, argreduce = kernel.combine, kernel.reduce, kernel.argreduce
        A, S = len(dense.aspace), len(dense.sspace)
        lp = self.batch.layer
        mem = self.nodes[pos]
        n = len(mem)
        p0 = int(pos[0])
        inp0 = self.inputs[p0]
        slot0 = lp.child_ptr[mem]
        d = int(lp.child_ptr[mem[0] + 1] - slot0[0])
        edges0 = self.edges[int(self.eoff[p0]) : int(self.eoff[p0]) + d]
        affs = [self.affs[p] for p in pos.tolist()] if sig is not None else []
        # Per-child affine weights of the group (None: no affine transition).
        tws0 = affs[0][1] if affs and affs[0] is not None else None

        if sig is not None and sig[0] == "a":
            pair = tensors.finalize_affine_pair(sig[1], inp0, affs[0][0])
            if pair is None:
                return False
            base, masks = pair
            # One scalar or one K-tuple per member; both shapes land as (n, K).
            w = np.array([a[0] for a in affs], dtype=kernel.dtype).reshape(n, -1)
            fin = tensors.compose_affine(base, masks, w)  # (n, A, S)
        else:
            fin = tensors.finalize_mat(inp0)[None, :, :]  # (1, A, S), shared

        acc = tensors.init_vec(inp0)[None]  # (1, 1, A), shared across the group
        steps: List[np.ndarray] = []
        for j in range(d):
            tw = tws0[j] if tws0 is not None else None
            if tw is None:
                T = tensors.transition_tensor(inp0, edges0[j])[None, None]  # (1, 1, A, S, A')
            else:
                assert sig is not None
                tpair = tensors.transition_affine_pair(sig[3][j][1], inp0, edges0[j], tw)
                if tpair is None:
                    return False
                baseT, masksT = tpair
                wj = np.array([a[1][j] for a in affs], dtype=kernel.dtype).reshape(n, -1)
                T = tensors.compose_affine(baseT, masksT, wj)[:, None]  # (n, 1, A, S, A')
            ch = lp.child[slot0 + j]
            if j != path_j:
                rows = st.vals[st.rbase[ch]][:, None, :]  # (n, 1, S)
            elif ch[0] == HOLE_CHILD:
                rows = dense._hole_batch[None]  # (1, H, S), the hole pseudo-child
            else:
                rows = st.vals[st.rbase[ch][:, None] + dense._hrange]  # (n, H, S)
            # b = child ⊗ T first, then acc ⊗ b: associates float sums
            # exactly like the scalar times(a, times(c, t)).
            b = combine(rows[:, :, None, :, None], T)
            cand = combine(acc[:, :, :, None, None], b)
            flat = cand.reshape(cand.shape[0], cand.shape[1], A * S, A)
            acc = reduce_(flat, axis=2)
            if selective:
                steps.append(argreduce(flat, axis=2))

        cand = combine(acc[:, :, :, None], fin[:, None, :, :])  # (n', h, A, S)
        vec = reduce_(cand, axis=2)
        # Leading axes may have stayed degenerate (all inputs shared): the
        # assignments below broadcast them over the members.
        if path_j < 0:
            rows_out = st.rbase[mem]
            st.vals[rows_out] = vec[:, 0]
            if selective:
                st.bp[rows_out] = argreduce(cand, axis=2)[:, 0]
                for j, step in enumerate(steps):
                    st.steps[st.sbase[slot0 + j]] = step[:, 0]
        else:
            hr = dense._hrange
            rows_out = st.rbase[mem][:, None] + hr
            st.vals[rows_out] = vec
            if selective:
                st.bp[rows_out] = argreduce(cand, axis=2)
                for j, step in enumerate(steps):
                    st.steps[st.sbase[slot0 + j][:, None] + hr] = step
        return True


def _runs(*cols: np.ndarray) -> List[Tuple[Tuple[int, ...], np.ndarray]]:
    """Positions grouped by equal key columns, in ascending key order."""
    if not len(cols[0]):
        return []
    order = np.lexsort(cols[::-1])
    keys = [c[order] for c in cols]
    change = np.zeros(len(order), dtype=bool)
    change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    bounds = np.append(starts, len(order))
    return [
        (tuple(int(k[s]) for k in keys), order[s:e])
        for s, e in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
