"""Label arrays, their read-only views, and the dense kernel's narrowed relabel.

A problem's labels live in one array over the plan's node index
(:mod:`repro.dp.kernels.labels`); solves, update batches and published views
read it through :class:`~repro.dp.kernels.labels.NodeLabels` /
:class:`~repro.dp.kernels.labels.EdgeLabels`.  The dense kernel's top-down
pass replays only its active set: these tests pin each trigger of that set
and the equivalence of its two replay schedules.
"""

from __future__ import annotations

import copy
import random
from typing import Any, List

import numpy as np
import pytest

from repro.core.pipeline import prepare, solve, solve_on
from repro.dp.accumulation import UpwardAccumulationDP
from repro.dp.kernels.labels import EdgeLabels, NodeLabels
from repro.dp.kernels.plan import LEAF
from repro.dp.problem import NodeInput
from repro.dynamic import IncrementalSolver, node_update
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.min_weight_dominating_set import MinWeightDominatingSet
from repro.trees import generators as gen

from tests.conftest import FAMILIES, FAMILY_IDS


def _weighted(tree, seed):
    return gen.with_random_weights(tree, seed=seed)


class SizeParity(UpwardAccumulationDP):
    """Tuple-valued labels: ``(subtree size, size % 2)`` of every node."""

    name = "size-parity"

    def value_of(self, v: NodeInput, child_values: List[Any]) -> Any:
        size = 1 + sum(c[0] for c in child_values)
        return (size, size % 2)

    def partial_function(self, v: NodeInput, known_child_values: List[Any]) -> Any:
        return 1 + sum(c[0] for c in known_child_values)

    def apply(self, fn: Any, x: Any) -> Any:
        return (fn + x[0], (fn + x[0]) % 2)

    def compose(self, outer: Any, inner: Any) -> Any:
        return outer + inner


# --------------------------------------------------------------------------- #
# The views
# --------------------------------------------------------------------------- #


def test_views_compare_equal_to_dicts_in_both_directions():
    tree = _weighted(gen.random_attachment_tree(150, seed=4), 4)
    res = solve(tree, MaxWeightIndependentSet())
    ref = solve(tree, MaxWeightIndependentSet(), backend="python")
    for view, other in ((res.edge_labels, ref.edge_labels), (res.node_labels, ref.node_labels)):
        as_dict = {k: view[k] for k in view}
        assert view == as_dict and as_dict == view
        assert view == other and dict(other) == view and view.to_dict() == as_dict
        key = next(iter(as_dict))
        as_dict[key] = "changed"
        assert view != as_dict and as_dict != view
    assert res.node_labels[tree.root] == res.root_label
    assert res.output == ref.output


def test_views_are_read_only():
    res = solve(_weighted(gen.random_attachment_tree(60, seed=2), 2), MaxWeightIndependentSet())
    edge = next(iter(res.edge_labels))
    with pytest.raises(TypeError):
        res.edge_labels[edge] = "x"
    with pytest.raises(TypeError):
        del res.node_labels[edge[0]]
    for name in ("clear", "update", "pop", "setdefault"):
        assert not hasattr(res.edge_labels, name)
    with pytest.raises(ValueError):
        res.node_labels.array[0] = 0
    copied = dict(res.edge_labels)
    copied[edge] = "x"  # a copy is an ordinary dict
    assert res.edge_labels[edge] != "x"


def test_views_support_in_len_and_iteration():
    tree = _weighted(gen.caterpillar_tree(80), 1)
    res = solve(tree, MaxWeightIndependentSet())
    edges, nodes = res.edge_labels, res.node_labels
    assert isinstance(edges, EdgeLabels) and isinstance(nodes, NodeLabels)
    assert len(edges) == len(tree.edges()) == len(list(edges))
    assert len(nodes) == tree.num_nodes == len(list(nodes))
    assert set(edges) == set(tree.edges()) and set(nodes) == set(tree.nodes())
    child, parent = tree.edges()[0]
    assert (child, parent) in edges
    assert (parent, child) not in edges and (child, child) not in edges
    assert (tree.root, tree.root) not in edges and "nope" not in edges
    assert "nope" not in nodes and tree.root in nodes
    with pytest.raises(KeyError):
        edges[(parent, child)]
    with pytest.raises(KeyError):
        nodes["nope"]
    assert dict(edges.items()) == edges.to_dict()


def test_degree_reduced_star_projects_away_aux_nodes():
    tree = _weighted(gen.star_tree(300), 3)
    prepared = prepare(tree)
    assert not prepared.reduction.is_identity
    res = solve_on(prepared, MaxWeightIndependentSet())
    aux = prepared.reduction.aux_nodes
    assert set(res.node_labels) == set(tree.nodes())
    assert not aux & set(res.node_labels)
    assert set(res.edge_labels) == set(tree.edges())
    assert res.node_labels[tree.root] == res.root_label
    # The reduced tree's views (the engine's) still hold the aux nodes.
    assert aux <= set(res.solve_result.node_labels)
    for v in tree.nodes():
        assert res.node_labels[v] == res.solve_result.node_labels[v]
    ref = solve(tree, MaxWeightIndependentSet(), backend="python")
    assert res.edge_labels == ref.edge_labels and res.node_labels == ref.node_labels


def test_tuple_labels_are_stored_whole():
    tree = gen.random_attachment_tree(120, seed=9)
    res = solve(tree, SizeParity())
    sizes = {v: 1 for v in tree.nodes()}
    for v in tree.postorder():
        if v != tree.root:
            sizes[tree.parent[v]] += sizes[v]
    assert res.node_labels.array.ndim == 1
    for v in tree.nodes():
        assert res.node_labels[v] == (sizes[v], sizes[v] % 2)
    assert res.node_labels.to_dict() == {v: (s, s % 2) for v, s in sizes.items()}


def test_a_kept_view_does_not_change_across_batches():
    tree = _weighted(gen.random_attachment_tree(200, seed=5), 5)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    kept = inc.view()
    nodes_before, edges_before = kept.node_labels.to_dict(), kept.edge_labels.to_dict()
    rng = random.Random(5)
    for _ in range(10):
        inc.apply_updates([node_update(rng.choice(tree.nodes()), rng.uniform(0, 100))])
    assert inc.view().node_labels != nodes_before, "the updates must move some label"
    assert kept.node_labels == nodes_before and kept.edge_labels == edges_before


# --------------------------------------------------------------------------- #
# The narrowed relabel
# --------------------------------------------------------------------------- #


def _chain(index, v):
    """Ids of the clusters on the absorption chain of node ``v``'s element."""
    cid = next(iter(index.clusters([index.node(v)])))
    out = set()
    while cid >= 0:
        out.add(cid)
        cid = int(index.parent_cluster[cid])
    return out


def test_in_edge_change_alone_relabels_the_hole_path():
    """A cluster off the update's chain whose in-edge label moves, and
    nothing else of it, must still relabel its hole path.  Paths nest
    indegree-one clusters deepest, so their updates reach this case."""
    found = 0
    for seed in range(2):
        tree = _weighted(gen.path_tree(60), seed)
        inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
        plan = inc.engine.plan()
        index = plan.seed_index()
        rng = random.Random(seed)
        for _ in range(30):
            v = rng.choice(tree.nodes())
            w = round(rng.uniform(0, 100), 2)
            before = inc.solve_result().node_labels.array
            inc.apply_updates([node_update(v, w)])
            tree.node_data[v] = w
            after = inc.solve_result().node_labels.array
            chain = _chain(index, v)
            for lp in plan.layers[1:]:
                for r, cid in enumerate(lp.cids.tolist()):
                    out, in_ = lp.out_edge[r], lp.in_edge[r]
                    if cid in chain or in_ < 0 or before[out] != after[out]:
                        continue
                    inner = lp.ie_edge[lp.ie_ptr[r] : lp.ie_ptr[r + 1]]
                    if before[in_] != after[in_] and (before[inner] != after[inner]).any():
                        found += 1
            ref = solve(tree, MaxWeightIndependentSet(), backend="numpy")
            assert inc.as_pipeline_result().edge_labels == ref.edge_labels
    assert found, "no batch moved a cluster's in-edge label alone; pick other inputs"


def test_unchanged_labels_replay_no_more_than_the_bottom_up_resolved():
    tree = _weighted(gen.random_attachment_tree(400, seed=8), 8)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    dense = inc.solver._dense
    rng = random.Random(8)
    for v in rng.sample(tree.nodes(), 12):
        up0, down0 = dense.bottom_up_elements, dense.top_down_elements
        # Rewriting a node's own weight re-solves its path but moves no label.
        report = inc.apply_updates([node_update(v, tree.node_data[v])])
        assert report.edges_relabeled == 0 and not report.root_label_changed
        resolved = dense.bottom_up_elements - up0
        assert resolved > 0
        assert dense.top_down_elements - down0 <= resolved
    assert inc.view().edge_labels == solve(tree, MaxWeightIndependentSet()).edge_labels


def test_a_row_whose_replay_raised_is_replayed_whole():
    tree = _weighted(gen.random_attachment_tree(300, seed=6), 6)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    dense = inc.solver._dense
    engine = inc.engine
    plan = engine.plan()
    # The largest layer-1 cluster topped by an inner element, and its
    # stored boundary states.
    lp = plan.layers[1]
    sizes = np.where(lp.kind[lp.top] != LEAF, np.diff(lp.elem_ptr), -1)
    row = int(np.argmax(sizes))
    batch = engine.layer_batch(1, [int(lp.cids[row])], inc.summaries)
    st = dense._stores[1]
    out_ids = st.state[lp.top[batch.rows]].copy()
    in_ids = st.in_state[batch.rows].copy()
    before = dense.top_down_elements
    want, _ = dense.label_layer(batch, out_ids, in_ids)
    assert dense.top_down_elements == before  # labeled, nothing active
    # Mark the top re-solved and make its every state unreachable: the
    # replay raises.
    saved = st.vals.copy()
    top = int(lp.top[row])
    n_rows = len(dense.sspace) if lp.depth[top] >= 0 else 1
    st.vals[st.rbase[top] : st.rbase[top] + n_rows] = dense.kernel.zero
    st.fresh[top] = True
    with pytest.raises(RuntimeError, match="inconsistent traceback"):
        dense.label_layer(batch, out_ids, in_ids)
    assert not st.labeled[row]
    st.vals[:] = saved
    el = lp.elements_of(batch.rows)
    inner = int(np.count_nonzero(lp.kind[el] != LEAF))
    before = dense.top_down_elements
    got, _ = dense.label_layer(batch, out_ids, in_ids)
    assert dense.top_down_elements - before == inner
    assert np.array_equal(got, want) and st.labeled[row]
    # Once labeled again, the same boundary states replay nothing.
    before = dense.top_down_elements
    dense.label_layer(batch, out_ids, in_ids)
    assert dense.top_down_elements == before


def _perturb(dense, lp, st, batch, rng):
    """Move the boundary states of about half the batch's rows to other
    feasible ones, as label_layer would; return the elements made active."""
    S = len(dense.sspace)
    zero = dense.kernel.zero
    start = []
    for k, r in enumerate(batch.rows.tolist()):
        if rng.random() < 0.5:
            continue
        top = int(lp.top[r])
        holes = [int(st.in_state[r])]
        if lp.hole[r] >= 0:
            holes = rng.sample(range(S), S)
        for h in holes:
            row = st.rbase[top] + (h if lp.depth[top] >= 0 else 0)
            feasible = [s for s in range(S) if st.vals[row, s] != zero]
            if feasible:
                break
        if not feasible:
            continue
        if h != st.in_state[r]:
            st.in_state[r] = h
            el = lp.elements_of(np.array([r]))
            start.extend(el[lp.depth[el] >= 0].tolist())
        st.state[top] = rng.choice(feasible)
        start.append(top)
    return np.unique(np.array(start, dtype=np.int64))


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_walk_and_level_replay_write_identical_states(family, builder):
    """The per-element walk and the level-vectorized replay, from the same
    perturbed store and active set, write identical states — the states a
    full replay of every element writes."""
    tree = _weighted(builder(200), 3)
    prepared = prepare(tree, backend="numpy")
    inc = IncrementalSolver(prepared, MinWeightDominatingSet())
    dense = inc.solver._dense
    plan = inc.engine.plan()
    rng = random.Random(family)
    checked = 0
    for layer, st in sorted(dense._stores.items()):
        lp = plan.layers[layer]
        if not lp.num_clusters:
            continue
        batch = inc.engine.layer_batch(layer, None, inc.summaries)
        start = _perturb(dense, lp, st, batch, rng)
        results = []
        for replay, active in (
            (dense._replay_walk, start),
            (dense._replay_levels, start),
            (dense._replay_levels, batch.elements),
        ):
            mine = copy.copy(st)
            mine.state = st.state.copy()
            replay(batch, mine, active)
            results.append(mine.state)
        assert np.array_equal(results[0], results[1]), (family, layer)
        assert np.array_equal(results[1], results[2]), (family, layer)
        checked += len(start)
    assert checked, "no layer had an active element"
