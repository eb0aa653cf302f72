"""Seeded inputs of the three workloads.

Each workload fixes its tree *shape*, its payloads and (for serve-rw) its
update stream with a constant shape seed, because the MPC counts (rounds,
words, clusters) are properties of exactly those.  ``--seed`` relabels the
node ids with a random permutation (and, for batch-deep, also shuffles and
re-orients the edge list), so each seed hands the program a different but
isomorphic input while every count stays identical across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Tuple

from repro.dynamic import PointUpdate, edge_update, node_update
from repro.representations.base import ListOfEdges
from repro.trees import generators as gen
from repro.trees.tree import RootedTree

#: Shape seeds: fixed per workload, recorded in WORKLOADS.json.
SHAPE_SEED = {"batch-shallow": 2301, "batch-deep": 2302, "serve-rw": 2303}

#: Node counts at full size and at the self-test's smoke size.
SIZES = {
    "full": {"batch-shallow": 100_000, "batch-deep": 100_000, "serve-rw": 30_000},
    "smoke": {"batch-shallow": 3_000, "batch-deep": 3_000, "serve-rw": 2_000},
}

WRITERS = 8


@dataclass
class Inputs:
    """What one run hands the library, plus what its checks need."""

    #: The representation passed to ``prepare()``.
    rep: Any
    #: The same tree as a :class:`RootedTree` with its initial payloads.
    tree: RootedTree
    root: Hashable
    #: serve-rw only: ``WRITERS`` per-writer update lists and the read targets.
    writes: List[List[PointUpdate]] = field(default_factory=list)
    read_nodes: List[Hashable] = field(default_factory=list)


def _weights(rng: random.Random, keys: List[Any]) -> Dict[Any, float]:
    # Full-precision weights: with rounded ones, equal-weight optima tie, and
    # which one wins (and so the label words charged) follows the node ids.
    return {k: rng.uniform(0.5, 10.0) for k in keys}


def _relabel(tree: RootedTree, seed: int) -> Tuple[RootedTree, List[int]]:
    """``tree`` (nodes 0..n-1) with node i renamed to ``perm[i]``."""
    perm = list(range(tree.num_nodes))
    random.Random(seed).shuffle(perm)
    relabeled = RootedTree(
        root=perm[tree.root],
        parent={perm[v]: perm[p] for v, p in tree.parent.items()},
        node_data={perm[v]: w for v, w in tree.node_data.items()},
        edge_data={(perm[c], perm[p]): w for (c, p), w in tree.edge_data.items()},
    )
    return relabeled, perm


def _weighted_random_tree(n: int, shape_seed: int) -> RootedTree:
    shape = gen.random_attachment_tree(n, seed=shape_seed)
    rng = random.Random(shape_seed)
    return RootedTree(
        root=shape.root,
        parent=shape.parent,
        node_data=_weights(rng, list(range(n))),
        edge_data=_weights(rng, sorted(shape.edges())),
    )


def batch_shallow(n: int, seed: int) -> Inputs:
    tree, _ = _relabel(_weighted_random_tree(n, SHAPE_SEED["batch-shallow"]), seed)
    return Inputs(rep=tree, tree=tree, root=tree.root)


def batch_deep(n: int, seed: int) -> Inputs:
    tree, _ = _relabel(gen.caterpillar_tree(n), seed)
    rng = random.Random(seed)
    edges = [(c, p) if rng.random() < 0.5 else (p, c) for c, p in tree.edges()]
    rng.shuffle(edges)
    return Inputs(rep=ListOfEdges(edges, directed=False), tree=tree, root=tree.root)


def serve_rw(n: int, seed: int, per_writer: int) -> Inputs:
    """Tree plus ``WRITERS`` closed-loop update streams and read targets.

    The k-th updates of the writers form batch k; their targets are
    distinct, so a batch's result does not depend on the order the writers
    woke in.  Node and edge updates are 50/50 with uniform targets.
    """
    base = _weighted_random_tree(n, SHAPE_SEED["serve-rw"])
    tree, perm = _relabel(base, seed)
    rng = random.Random(SHAPE_SEED["serve-rw"] + 1)
    edges = sorted(base.edges())
    writes: List[List[PointUpdate]] = [[] for _ in range(WRITERS)]
    for _step in range(per_writer):
        used: set = set()
        for w in range(WRITERS):
            while True:
                if rng.random() < 0.5:
                    target: Any = ("node", rng.randrange(n))
                else:
                    target = ("edge", edges[rng.randrange(len(edges))])
                if target not in used:
                    break
            used.add(target)
            weight = rng.uniform(0.5, 10.0)
            if target[0] == "node":
                writes[w].append(node_update(perm[target[1]], weight))
            else:
                c, p = target[1]
                writes[w].append(edge_update((perm[c], perm[p]), weight))
    read_rng = random.Random(seed)
    nodes = list(tree.parent)
    read_nodes = [nodes[read_rng.randrange(n)] for _ in range(4096)]
    return Inputs(rep=tree, tree=tree, root=tree.root, writes=writes, read_nodes=read_nodes)
