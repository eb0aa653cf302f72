"""Vectorized integer-array backend for the distributed tree subroutines.

This module implements the three [SODA'23]-style subroutines of
:mod:`repro.mpc.treeops` — depth computation, capped subtree gathering and
degree-2 path positions — on flat NumPy integer arrays instead of per-record
Python objects shipped through the simulated machines.

**Fidelity contract.**  For every input, each function here produces

* the *bit-identical output* of the record-level reference path, and
* the *bit-identical round/label accounting*: the same number of measured
  rounds under the same labels, charged through
  :meth:`~repro.mpc.simulator.MPCSimulator.tick_rounds` in the same order the
  reference path's supersteps would execute (including the data-dependent
  number of doubling iterations).

The equivalence test-suite asserts both properties across all tree families.
What the array backend does *not* reproduce is the mid-flight per-machine
memory observations of the record path (its state lives in flat arrays, not
in simulated partitions); capacity studies therefore use
``treeops_backend="records"``.

**Execution placement.**  Each doubling step is whole-array NumPy on the
driver, and the driver charges the step's rounds through ``tick_rounds``
right after it.  Every step computes its new arrays from the previous
iteration's arrays before any of them is replaced, so a step reads one
consistent state, as a synchronous superstep does.

The vectorization follows the structure of the doubling proofs themselves:

* ``compute_depths`` — parent-pointer doubling with ``jump``/``dist`` arrays
  advanced by fancy indexing (``jump[jump]``), exactly the ancestor-doubling
  of the record path.
* ``capped_subtree_gather`` — binary lifting on the *unique* ancestor at
  distance ``2^t`` (in a tree every node has at most one, so the frontier
  relation ``anc_t[u] = v`` has O(n) pairs per level).  The record path's
  per-node ``known`` sets satisfy the invariant that a still-light node's set
  is exactly its descendants within depth ``2^t``; hence its size recurrence
  is ``s_{t+1}(v) = s_t(v) + sum_{anc_t[u]=v} (s_t(u) - 1)`` (one
  ``bincount``; the ``-1`` avoids double-counting the frontier node itself),
  heaviness at time ``t`` is ``s_t(v) > cap``, and a node's frontier is
  non-empty iff some ``u`` has ``anc_t[u] = v`` (a membership mask).  Light
  members are recovered as contiguous preorder intervals at the end.
* ``degree2_path_positions`` — bidirectional pointer doubling with the
  anchor/distance/done triples kept as parallel arrays; the advance rules
  transcribe the record path's ``advance_up``/``advance_dn`` element-wise.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.mpc.simulator import MPCSimulator

__all__ = [
    "compute_depths_array",
    "capped_subtree_gather_array",
    "degree2_path_positions_array",
]


def compute_depths_array(
    sim: MPCSimulator,
    parent: Dict[Hashable, Hashable],
    root: Hashable,
    max_iterations: Optional[int] = None,
) -> Dict[Hashable, int]:
    """Array-backed :func:`~repro.mpc.treeops.compute_depths`."""
    if root not in parent or parent[root] != root:
        parent = dict(parent)
        parent[root] = root

    nodes: List[Hashable] = list(parent)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    jump = np.fromiter((idx[parent[v]] for v in nodes), dtype=np.int64, count=n)
    ids = np.arange(n, dtype=np.int64)
    ridx = idx[root]
    dist = (ids != ridx).astype(np.int64)

    if max_iterations is not None:
        limit = max_iterations
    else:
        limit = max(1, 2 + int(math.ceil(math.log2(max(2, n)))))

    for _ in range(limit):
        # One doubling step = the reference path's self-join (2 group_by
        # rounds) followed by its convergence convergecast (1 reduce round).
        at_self = jump == ids
        dist, jump = (
            np.where(at_self, dist, dist + dist[jump]),
            np.where(at_self, jump, jump[jump]),
        )
        sim.tick_rounds(2, label="group_by")
        unfinished = int(np.count_nonzero((jump != ids) & (jump != ridx)))
        sim.tick_rounds(1, label="reduce")
        if unfinished == 0:
            break
    dist_list = dist.tolist()

    depths = {v: dist_list[i] for i, v in enumerate(nodes)}
    depths[root] = 0
    return depths


def capped_subtree_gather_array(
    sim: MPCSimulator,
    parent: Dict[Hashable, Hashable],
    children: Dict[Hashable, List[Hashable]],
    root: Hashable,
    cap: int,
):
    """Array-backed :func:`~repro.mpc.treeops.capped_subtree_gather`.

    Returns the same ``{node: SubtreeInfo}`` mapping as the record path.
    """
    from repro.mpc.treeops import SubtreeInfo

    nodes: List[Hashable] = list(parent.keys())
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}

    par = np.full(n, -1, dtype=np.int64)
    for v in nodes:
        for c in children.get(v, ()):
            par[idx[c]] = idx[v]

    # s_t(v) = number of descendants of v within relative depth 2^t (incl. v);
    # anc_t[u] = the unique ancestor of u at distance exactly 2^t (or -1).
    s = np.bincount(par[par >= 0], minlength=n).astype(np.int64) + 1
    anc = par.copy()

    limit = max(1, 2 + int(math.ceil(math.log2(max(2, cap + 2)))))

    for _ in range(limit):
        valid = anc >= 0
        tgt = anc[valid]
        has_frontier = np.zeros(n, dtype=bool)
        has_frontier[tgt] = True
        any_active = bool(np.any((s <= cap) & has_frontier))
        # Convergence convergecast ("is any machine still growing a set?").
        sim.tick_rounds(1, label="reduce")
        if not any_active:
            break
        # Request/response join (2 rounds) + state/response co-group (2).
        sim.tick_rounds(4, label="group_by")
        # The weights are integer-valued floats far below 2^53, so the
        # float64 histogram is exact.
        contrib = np.bincount(
            tgt, weights=(s[valid] - 1).astype(np.float64), minlength=n
        ).astype(np.int64)
        nxt = np.full(n, -1, dtype=np.int64)
        nxt[valid] = anc[tgt]
        s = s + contrib
        anc = nxt

    valid = anc >= 0
    has_frontier = np.zeros(n, dtype=bool)
    has_frontier[anc[valid]] = True
    heavy = (s > cap) | has_frontier

    # Light members are contiguous intervals of any DFS preorder.
    order = np.empty(n, dtype=np.int64)
    pos = np.empty(n, dtype=np.int64)
    child_order = np.argsort(par, kind="stable")
    counts = np.bincount(par[par >= 0], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    num_roots = int(n - counts.sum())  # nodes with par == -1 (sorted first)
    offsets += num_roots
    k = 0
    stack = [i for i in range(n) if par[i] < 0]
    co = child_order.tolist()
    off = offsets.tolist()
    while stack:
        v = stack.pop()
        order[k] = v
        pos[v] = k
        k += 1
        stack.extend(co[off[v] : off[v + 1]])

    heavy_list = heavy.tolist()
    s_list = s.tolist()
    pos_list = pos.tolist()
    order_list = order.tolist()

    result: Dict[Hashable, "SubtreeInfo"] = {}
    for i, v in enumerate(nodes):
        if heavy_list[i]:
            result[v] = SubtreeInfo(node=v, heavy=True, size=None, members=None)
        else:
            size = s_list[i]
            a = pos_list[i]
            members = frozenset(nodes[j] for j in order_list[a : a + size])
            result[v] = SubtreeInfo(node=v, heavy=False, size=size, members=members)
    return result


def _degree2_advance(
    t: np.ndarray, d: np.ndarray, done: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One doubling step of one direction of ``degree2_path_positions_array``.

    ``(t, d, done)`` are one direction's anchor/distance/done arrays; the
    rule transcribes the record path's ``advance_up``/``advance_dn``
    element-wise.
    """
    t_done = done[t]
    t_d = d[t]
    t_t = t[t]
    anchored = np.where(t_d == 0, t, t_t)
    return (
        np.where(done, t, np.where(t_done, anchored, t_t)),
        np.where(done, d, d + t_d),
        done | t_done,
    )


def degree2_path_positions_array(
    sim: MPCSimulator,
    path_parent: Dict[Hashable, Optional[Hashable]],
    path_child: Dict[Hashable, Optional[Hashable]],
) -> Dict[Hashable, Tuple[Hashable, int, Hashable, int]]:
    """Array-backed :func:`~repro.mpc.treeops.degree2_path_positions`."""
    nodes: List[Hashable] = list(path_parent.keys())
    if not nodes:
        return {}
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}

    up_t = np.empty(n, dtype=np.int64)
    up_d = np.empty(n, dtype=np.int64)
    up_done = np.empty(n, dtype=bool)
    dn_t = np.empty(n, dtype=np.int64)
    dn_d = np.empty(n, dtype=np.int64)
    dn_done = np.empty(n, dtype=bool)
    for v in nodes:
        i = idx[v]
        up = path_parent.get(v)
        down = path_child.get(v)
        if up is None:
            up_t[i], up_d[i], up_done[i] = i, 0, True
        else:
            up_t[i], up_d[i], up_done[i] = idx[up], 1, False
        if down is None:
            dn_t[i], dn_d[i], dn_done[i] = i, 0, True
        else:
            dn_t[i], dn_d[i], dn_done[i] = idx[down], 1, False

    limit = max(1, 2 + int(math.ceil(math.log2(max(2, n)))))
    for _ in range(limit):
        unfinished = int(np.count_nonzero(~(up_done & dn_done)))
        sim.tick_rounds(1, label="reduce")
        if unfinished == 0:
            break
        # Upward then downward doubling (each a self-join: 2 group_by rounds).
        up_t, up_d, up_done = _degree2_advance(up_t, up_d, up_done)
        sim.tick_rounds(2, label="group_by")
        dn_t, dn_d, dn_done = _degree2_advance(dn_t, dn_d, dn_done)
        sim.tick_rounds(2, label="group_by")
    up_t_l, up_d_l = up_t.tolist(), up_d.tolist()
    dn_t_l, dn_d_l = dn_t.tolist(), dn_d.tolist()

    out: Dict[Hashable, Tuple[Hashable, int, Hashable, int]] = {}
    for i, v in enumerate(nodes):
        out[v] = (nodes[up_t_l[i]], up_d_l[i], nodes[dn_t_l[i]], dn_d_l[i])
    return out
