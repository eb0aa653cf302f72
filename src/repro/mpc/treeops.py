"""Distributed tree subroutines used by the hierarchical clustering.

The clustering construction (Section 4.2 of the paper) relies on three
subroutines which the paper imports from Balliu, Latypov, Maus, Olivetti and
Uitto [SODA'23]:

* ``CountSubtreeSizes`` — every node learns either the exact size of its
  subtree or that the size exceeds ``n^(delta/2)`` (their Lemma 6.13),
* ``GatherSubtrees`` — the subtree of every *light* node whose parent is
  *heavy* is collected onto one machine (their Lemma 6.14),
* ``CountDistances`` — every degree-2 node learns its distance to both
  endpoints of the maximal degree-2 path containing it (their Lemma 6.17).

This module implements all three with **doubling** algorithms on the
distributed-array layer:

* :func:`compute_depths` — parent-pointer doubling; converges in
  ``ceil(log2 depth) + 1`` iterations, i.e. O(log D).
* :func:`capped_subtree_gather` — frontier doubling that simultaneously
  realises ``CountSubtreeSizes`` and ``GatherSubtrees``: a node stops growing
  its gathered set as soon as it exceeds the cap, so the work per node stays
  within the machine-memory budget and the iteration count is
  O(log min(D, cap)) ⊆ O(log D).
* :func:`degree2_path_positions` — bidirectional pointer doubling along
  maximal degree-2 paths (any simple path in a tree has length at most D, so
  this is again O(log D) iterations).

These are faithful in round complexity and output to the paper's black-box
lemmas even though they do not reproduce the [SODA'23] machinery line by
line; see DESIGN.md §2.

Each subroutine has two interchangeable backends, selected by
:attr:`~repro.mpc.config.MPCConfig.treeops_backend`:

* ``"records"`` — the reference path in this module: per-record state shipped
  through the simulated machines with the distributed-array primitives.
* ``"array"`` (default) — :mod:`repro.mpc.treeops_array`: the same doubling
  schedules evaluated on flat NumPy integer arrays, with bit-identical
  outputs and bit-identical round/label accounting (see that module's
  fidelity contract).

In both backends the per-iteration convergence test ("is any machine still
active?") is a one-round convergecast in the model; the driver evaluates the
predicate directly and counts the round via
:meth:`~repro.mpc.simulator.MPCSimulator.tick_rounds` instead of routing a
count through the machines — same rounds, none of the per-message pricing.

Rooting of an *undirected* edge list is provided by
:func:`orient_tree_charged`, which is a documented substitution: the
orientation itself is computed by the driver and the O(log D) rounds the
[SODA'23] rooting algorithm would take are charged explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.mpc.darray import DistributedArray
from repro.mpc.simulator import MPCSimulator

__all__ = [
    "compute_depths",
    "capped_subtree_gather",
    "SubtreeInfo",
    "degree2_path_positions",
    "orient_tree_charged",
]


def _use_array_backend(sim: MPCSimulator) -> bool:
    return sim.config.treeops_backend == "array"


# --------------------------------------------------------------------------- #
# Depth computation by pointer doubling
# --------------------------------------------------------------------------- #


def compute_depths(
    sim: MPCSimulator,
    parent: Dict[int, int],
    root: int,
    max_iterations: Optional[int] = None,
) -> Dict[int, int]:
    """Compute the depth of every node by parent-pointer doubling.

    ``parent`` maps every node to its parent; the root maps to itself.  After
    iteration ``t`` every node knows its ancestor at distance ``2^t`` (or the
    root) together with the distance to it, so ``ceil(log2 depth) + 1``
    iterations suffice — O(log D) rounds in total.
    """
    if _use_array_backend(sim):
        from repro.mpc.treeops_array import compute_depths_array

        return compute_depths_array(sim, parent, root, max_iterations)
    return _compute_depths_records(sim, parent, root, max_iterations)


def _compute_depths_records(
    sim: MPCSimulator,
    parent: Dict[int, int],
    root: int,
    max_iterations: Optional[int] = None,
) -> Dict[int, int]:
    """Record-level reference implementation of :func:`compute_depths`."""
    if root not in parent or parent[root] != root:
        parent = dict(parent)
        parent[root] = root

    records = [(v, parent[v], 0 if v == root else 1) for v in parent]
    arr = DistributedArray.from_records(sim, records)

    n = len(records)
    if max_iterations is not None:
        limit = max_iterations
    else:
        limit = max(1, 2 + int(math.ceil(math.log2(max(2, n)))))

    for _ in range(limit):
        joined = arr.join(
            arr,
            key_self=lambda r: r[1],   # my jump target
            key_other=lambda r: r[0],  # the jump target's own record
        )

        def advance(rec):
            _, me, target = rec
            v, jump, dist = me
            t_v, t_jump, t_dist = target
            if jump == v:  # already at the root
                return (v, jump, dist)
            return (v, t_jump, dist + t_dist)

        new_arr = joined.map(advance)
        # Convergence test: one convergecast round, driver-evaluated (see the
        # module docstring).
        unfinished = sum(
            1 for p in new_arr.parts for r in p if not (r[0] == r[1] or r[1] == root)
        )
        sim.tick_rounds(1, label="reduce")
        arr = new_arr
        if unfinished == 0:
            break

    depths = {}
    for v, _jump, dist in arr.collect():
        depths[v] = dist
    depths[root] = 0
    return depths


# --------------------------------------------------------------------------- #
# Capped subtree gathering (CountSubtreeSizes + GatherSubtrees)
# --------------------------------------------------------------------------- #


@dataclass
class SubtreeInfo:
    """Result of :func:`capped_subtree_gather` for one node."""

    node: int
    heavy: bool
    size: Optional[int]              # exact size if light, None if heavy
    members: Optional[FrozenSet[int]]  # the gathered subtree if light


def capped_subtree_gather(
    sim: MPCSimulator,
    parent: Dict[int, int],
    children: Dict[int, List[int]],
    root: int,
    cap: int,
) -> Dict[int, SubtreeInfo]:
    """Gather every subtree of size at most ``cap``; mark larger ones heavy.

    Implements the combination of ``CountSubtreeSizes`` and
    ``GatherSubtrees``: a *light* node (subtree size ≤ cap) ends up knowing
    the full vertex set of its subtree; a *heavy* node only learns that it is
    heavy.  The frontier-doubling loop runs for O(log min(D, cap)) iterations.
    """
    if _use_array_backend(sim):
        from repro.mpc.treeops_array import capped_subtree_gather_array

        return capped_subtree_gather_array(sim, parent, children, root, cap)
    return _capped_subtree_gather_records(sim, parent, children, root, cap)


def _capped_subtree_gather_records(
    sim: MPCSimulator,
    parent: Dict[int, int],
    children: Dict[int, List[int]],
    root: int,
    cap: int,
) -> Dict[int, SubtreeInfo]:
    """Record-level reference implementation of :func:`capped_subtree_gather`."""
    nodes = list(parent.keys())
    if root not in children:
        children = dict(children)
        children.setdefault(root, [])

    # state record: (v, known_frozenset, frontier_frozenset, heavy)
    states = []
    for v in nodes:
        kids = tuple(children.get(v, ()))
        known = frozenset((v,) + kids)
        frontier = frozenset(kids)
        heavy = len(known) > cap
        if heavy:
            known, frontier = frozenset(), frozenset()
        states.append((v, known, frontier, heavy))
    arr = DistributedArray.from_records(sim, states)

    limit = max(1, 2 + int(math.ceil(math.log2(max(2, cap + 2)))))
    # The frontier depth doubles each iteration and a light subtree has depth
    # at most its size <= cap, so log2(cap)+2 iterations always suffice.

    def is_active(s) -> bool:
        return (not s[3]) and len(s[2]) > 0

    for _ in range(limit):
        # Convergence test: in the model this is a one-round convergecast
        # ("does any machine still hold an active record?"); the driver
        # evaluates the predicate over the partitions directly and counts the
        # round, instead of routing a full count() through the machines.
        any_active = any(is_active(s) for p in arr.parts for s in p)
        sim.tick_rounds(1, label="reduce")
        if not any_active:
            break
        active = arr.filter(is_active)

        # Requests: (requester v, target u) keyed by target u.
        requests = active.flat_map(lambda s: [(s[0], u) for u in s[2]])
        # Join requests with the target's state.
        responses = requests.join(
            arr,
            key_self=lambda r: r[1],
            key_other=lambda s: s[0],
        ).map(lambda rec: (rec[1][0], rec[2]))  # (requester, target_state)

        # Merge the responses into each requester's state.
        tagged_states = arr.map(lambda s: ("state", s[0], s))
        tagged_resps = responses.map(lambda r: ("resp", r[0], r[1]))
        merged = tagged_states.concat(tagged_resps).group_by(lambda rec: rec[1])

        def combine(group):
            _, members = group
            base = None
            resps = []
            for tag, _, payload in members:
                if tag == "state":
                    base = payload
                else:
                    resps.append(payload)
            assert base is not None
            v, known, frontier, heavy = base
            if heavy or not frontier:
                return (v, known, frontier, heavy)
            new_known = set(known)
            new_frontier: Set[int] = set()
            for (_u, u_known, u_frontier, u_heavy) in resps:
                if u_heavy:
                    heavy = True
                    break
                new_known |= u_known
                new_frontier |= u_frontier
            if heavy or len(new_known) > cap:
                return (v, frozenset(), frozenset(), True)
            return (v, frozenset(new_known), frozenset(new_frontier), False)

        arr = merged.map(combine)

    result: Dict[int, SubtreeInfo] = {}
    for v, known, frontier, heavy in arr.collect():
        if heavy:
            result[v] = SubtreeInfo(node=v, heavy=True, size=None, members=None)
        else:
            # If the frontier is non-empty the iteration cap was hit; this can
            # only happen for subtrees deeper than `cap`, which are heavy.
            if frontier:
                result[v] = SubtreeInfo(node=v, heavy=True, size=None, members=None)
            else:
                result[v] = SubtreeInfo(
                    node=v, heavy=False, size=len(known), members=frozenset(known)
                )
    return result


# --------------------------------------------------------------------------- #
# Degree-2 path positions (CountDistances)
# --------------------------------------------------------------------------- #


def degree2_path_positions(
    sim: MPCSimulator,
    path_parent: Dict[int, Optional[int]],
    path_child: Dict[int, Optional[int]],
) -> Dict[int, Tuple[int, int, int, int]]:
    """Positions of nodes on maximal degree-2 paths, by bidirectional doubling.

    Parameters
    ----------
    path_parent:
        For every path node ``v``: its parent **if the parent is also a path
        node**, else ``None`` (then ``v`` is the top endpoint of its path).
    path_child:
        For every path node ``v``: its unique path child if that child is a
        path node, else ``None`` (then ``v`` is the bottom endpoint).

    Returns
    -------
    dict
        ``v -> (top_anchor, dist_to_top, bottom_anchor, dist_to_bottom)``
        where the anchors are the endpoint path nodes of ``v``'s maximal
        degree-2 path.  Distances are counted in edges along the path.
    """
    if _use_array_backend(sim):
        from repro.mpc.treeops_array import degree2_path_positions_array

        return degree2_path_positions_array(sim, path_parent, path_child)
    return _degree2_path_positions_records(sim, path_parent, path_child)


def _degree2_path_positions_records(
    sim: MPCSimulator,
    path_parent: Dict[int, Optional[int]],
    path_child: Dict[int, Optional[int]],
) -> Dict[int, Tuple[int, int, int, int]]:
    """Record-level reference implementation of :func:`degree2_path_positions`."""
    nodes = list(path_parent.keys())
    if not nodes:
        return {}

    # record: (v, up_target, up_dist, up_done, down_target, down_dist, down_done)
    records = []
    for v in nodes:
        up = path_parent.get(v)
        down = path_child.get(v)
        if up is None:
            up_t, up_d, up_done = v, 0, True
        else:
            up_t, up_d, up_done = up, 1, False
        if down is None:
            dn_t, dn_d, dn_done = v, 0, True
        else:
            dn_t, dn_d, dn_done = down, 1, False
        records.append((v, up_t, up_d, up_done, dn_t, dn_d, dn_done))
    arr = DistributedArray.from_records(sim, records)

    limit = max(1, 2 + int(math.ceil(math.log2(max(2, len(nodes))))))
    for _ in range(limit):
        # Convergence test: one convergecast round, driver-evaluated (see the
        # module docstring).
        unfinished = sum(1 for p in arr.parts for r in p if not (r[3] and r[6]))
        sim.tick_rounds(1, label="reduce")
        if unfinished == 0:
            break

        # Upward doubling.
        joined_up = arr.join(arr, key_self=lambda r: r[1], key_other=lambda r: r[0])

        def advance_up(rec):
            _, me, tgt = rec
            v, up_t, up_d, up_done, dn_t, dn_d, dn_done = me
            if up_done:
                return me
            t_v, t_up_t, t_up_d, t_up_done = tgt[0], tgt[1], tgt[2], tgt[3]
            if t_up_done:
                # The target is an endpoint: we are done, anchored at the target.
                return (v, t_v if t_up_d == 0 else t_up_t, up_d + t_up_d, True, dn_t, dn_d, dn_done)
            return (v, t_up_t, up_d + t_up_d, False, dn_t, dn_d, dn_done)

        arr = joined_up.map(advance_up)

        # Downward doubling.
        joined_dn = arr.join(arr, key_self=lambda r: r[4], key_other=lambda r: r[0])

        def advance_dn(rec):
            _, me, tgt = rec
            v, up_t, up_d, up_done, dn_t, dn_d, dn_done = me
            if dn_done:
                return me
            t_v, t_dn_t, t_dn_d, t_dn_done = tgt[0], tgt[4], tgt[5], tgt[6]
            if t_dn_done:
                return (v, up_t, up_d, up_done, t_v if t_dn_d == 0 else t_dn_t, dn_d + t_dn_d, True)
            return (v, up_t, up_d, up_done, t_dn_t, dn_d + t_dn_d, False)

        arr = joined_dn.map(advance_dn)

    out: Dict[int, Tuple[int, int, int, int]] = {}
    for v, up_t, up_d, _up_done, dn_t, dn_d, _dn_done in arr.collect():
        out[v] = (up_t, up_d, dn_t, dn_d)
    return out


# --------------------------------------------------------------------------- #
# Rooting / orientation (documented substitution)
# --------------------------------------------------------------------------- #


def orient_tree_charged(
    sim: MPCSimulator,
    undirected_edges: Sequence[Tuple[int, int]],
    root: Optional[int] = None,
) -> Tuple[Dict[int, int], int]:
    """Orient an undirected tree towards ``root`` and charge O(log D) rounds.

    The paper uses the rooting algorithm of [SODA'23] as a black box; rather
    than reproducing that machinery we compute the orientation on the driver
    (a BFS from the root) and charge ``2 * ceil(log2(D + 2)) + 4`` rounds,
    the asymptotic cost the black box would incur.  This substitution is
    documented in DESIGN.md §2; all benchmarks that include it report the
    charge under the ``"rooting"`` label so it can be separated out.

    Returns the parent map (root maps to itself) and the chosen root.
    """
    adj: Dict[int, List[int]] = {}
    for a, b in undirected_edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if not adj:
        raise ValueError("empty edge list")
    if root is None:
        root = min(adj.keys())
    if root not in adj:
        raise ValueError(f"root {root} does not appear in the edge list")

    parent = {root: root}
    depth = {root: 0}
    frontier = [root]
    max_depth = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    depth[w] = depth[u] + 1
                    max_depth = max(max_depth, depth[w])
                    nxt.append(w)
        frontier = nxt

    if len(parent) != len(adj):
        raise ValueError("the input edge list is not a connected tree")

    charged = 2 * int(math.ceil(math.log2(max_depth + 2))) + 4
    sim.charge_rounds(charged, label="rooting")
    return parent, root
