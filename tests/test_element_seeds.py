"""Element seeds and the changed-path bottom-up of the incremental update path.

An update batch seeds the elements whose tables read its payloads (the
compiled plan's :class:`~repro.dp.kernels.plan.SeedIndex`), and the dense
kernel re-solves only those elements and their ancestors inside each dirty
cluster; every other element keeps the tables the last pass stored.  These
tests pin the seeds to owners read off the clustering directly, bound the
re-solved elements, and check bit-identity against fresh solves on the
shapes where a narrowed pass could read a stale table.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict

import numpy as np
import pytest

from repro.clustering.model import is_node_element
from repro.core.pipeline import prepare, solve
from repro.dp.kernels import dense_local
from repro.dp.kernels.plan import NODE
from repro.dynamic import IncrementalSolver, IncrementalSolverGroup, edge_update, node_update
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.max_weight_matching import MaxWeightMatching
from repro.problems.registry import table1_entries
from repro.trees import generators as gen

from tests.conftest import FAMILIES, FAMILY_IDS

_FAMILY = dict(FAMILIES)


def _assert_fresh(inc, tree, problem, **kw):
    """``inc``'s state is bit-identical to a fresh solve of ``tree``."""
    ref = solve(tree, problem, **kw)
    got = inc.as_pipeline_result()
    assert got.value == ref.value
    assert got.root_label == ref.root_label
    assert got.edge_labels == ref.edge_labels
    assert got.node_labels == ref.node_labels


# --------------------------------------------------------------------------- #
# The seeds are the owners
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("n,delta", [(60, 0.5), (400, 0.25)])
@pytest.mark.parametrize("family", FAMILY_IDS)
def test_seeds_equal_the_owners_read_off_the_clusters(family, n, delta):
    """Node, edge and sub-cluster seeds land in exactly the clusters whose
    ``elements``, ``internal_edges`` and ``in_edge`` name them."""
    prepared = prepare(_FAMILY[family](n), delta=delta)
    if family == "star":
        assert not prepared.reduction.is_identity
    hc = prepared.clustering
    plan = prepared.engine().plan()
    index = plan.seed_index()
    node_owner, absorber = {}, {}
    edge_owners = defaultdict(set)
    for cid, c in hc.clusters.items():
        for e in c.elements:
            (node_owner if is_node_element(e) else absorber)[e[1]] = cid
        for _child, _parent, edge in c.internal_edges:
            edge_owners[edge].add(cid)
        if c.in_edge is not None:
            edge_owners[c.in_edge].add(cid)

    reduced = hc.tree
    for v in reduced.nodes():
        layer, e = index.node(v)
        lp = plan.layers[layer]
        assert lp.kind[e] == NODE and plan.node_ids[lp.ref[e]] == v
        assert index.clusters([(layer, e)]) == {node_owner[v]}
    for child, parent in reduced.edges():
        assert index.clusters(index.edge(child)) == edge_owners[(child, parent)]
    for cid in hc.clusters:
        if cid == hc.final_cluster_id:
            assert index.absorbed_at[cid].tolist() == [-1, -1]
            assert index.parent_cluster[cid] == -1
            continue
        layer, e = index.absorber(cid)
        lp = plan.layers[layer]
        assert lp.kind[e] != NODE and lp.ref[e] == cid
        assert index.clusters([(layer, e)]) == {absorber[cid]}
        assert index.parent_cluster[cid] == absorber[cid]


# --------------------------------------------------------------------------- #
# Only the changed paths re-solve
# --------------------------------------------------------------------------- #


def test_a_node_update_re_solves_only_its_paths(monkeypatch):
    """Each re-solved cluster re-solves at most one element path, top
    included: at most ``height(top) + 1`` elements, not the whole cluster."""
    tree = gen.with_random_weights(gen.random_attachment_tree(400, seed=7), seed=7)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    batches = []
    summarize = dense_local.DenseClusterKernel.summarize_layer

    def spy(self, batch):
        before = self.bottom_up_elements
        out = summarize(self, batch)
        batches.append((batch.layer, batch.rows, self.bottom_up_elements - before))
        return out

    monkeypatch.setattr(dense_local.DenseClusterKernel, "summarize_layer", spy)
    rng = random.Random(7)
    paths = whole = 0
    for v in rng.sample(sorted(tree.nodes()), 20):
        batches.clear()
        report = inc.apply_updates([node_update(v, round(rng.uniform(0, 10), 3))])
        assert len(batches) == report.layers_resolved > 0
        for lp, rows, solved in batches:
            bound = int((lp.height[lp.top[rows]] + 1).sum())
            assert solved <= bound
            paths += bound
            whole += int((lp.elem_ptr[rows + 1] - lp.elem_ptr[rows]).sum())
    # The clusters are bushy enough for the bound to separate the two.
    assert paths < whole
    _assert_fresh(inc, tree, MaxWeightIndependentSet(), backend="numpy")


# --------------------------------------------------------------------------- #
# Bit-identity where a narrowed pass could read a stale table
# --------------------------------------------------------------------------- #


def _edge_weighted(tree, seed):
    rng = random.Random(seed)
    tree.edge_data = {e: round(rng.uniform(0, 5), 3) for e in tree.edges()}
    return tree


@pytest.mark.parametrize("family", ["path", "caterpillar"])
def test_mwm_update_on_the_in_edge_of_nested_clusters(family):
    """An edge entering nested indegree-one clusters seeds its internal slot
    and every hole slot through it; the innermost applies its transition."""
    tree = _edge_weighted(_FAMILY[family](400), 3)
    prepared = prepare(tree, delta=0.25, backend="numpy")
    inc = IncrementalSolver(prepared, MaxWeightMatching())
    index = inc.engine.plan().seed_index()
    nested = [c for c in sorted(tree.parent) if c != tree.root and len(index.edge(c)) >= 3]
    assert nested, "expected edges entering nested indegree-one clusters"
    rng = random.Random(3)
    for child in nested:
        for _ in range(2):
            inc.apply_updates([edge_update((child, tree.parent[child]), rng.uniform(0, 9))])
            _assert_fresh(inc, tree, MaxWeightMatching(), delta=0.25, backend="numpy")


def _clusters_of_three(plan):
    """``(layer plan, row)`` of every cluster with 3+ elements."""
    return [
        (lp, row)
        for lp in plan.layers[1:]
        for row in range(lp.num_clusters)
        if lp.elem_ptr[row + 1] - lp.elem_ptr[row] >= 3
    ]


def test_update_on_a_cluster_top_element():
    """The top element is its own whole path: its children keep their tables."""
    tree = gen.with_random_weights(gen.random_attachment_tree(300, seed=5), seed=5)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    plan = inc.engine.plan()
    tops = []
    for lp, row in _clusters_of_three(plan):
        top = lp.top[row]
        if lp.kind[top] == NODE:
            tops.append(plan.node_ids[lp.ref[top]])
    assert len(tops) >= 3
    rng = random.Random(5)
    for v in tops:
        inc.apply_updates([node_update(v, round(rng.uniform(0, 10), 3))])
        _assert_fresh(inc, tree, MaxWeightIndependentSet(), backend="numpy")


def test_two_updates_on_different_branches_of_one_cluster():
    """Two dirty paths meeting below the top re-solve their union once."""
    tree = gen.with_random_weights(gen.random_attachment_tree(300, seed=6), seed=6)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    plan = inc.engine.plan()
    index = plan.seed_index()
    pairs = []
    for lp, row in _clusters_of_three(plan):
        parent = index.parent[lp.layer]
        el = range(lp.elem_ptr[row], lp.elem_ptr[row + 1])
        leaves = [e for e in el if lp.kind[e] == NODE and lp.height[e] == 0]
        # Leaves under different parents: their paths meet higher up.
        for a, b in itertools.combinations(leaves, 2):
            if parent[a] != parent[b]:
                pairs.append((plan.node_ids[lp.ref[a]], plan.node_ids[lp.ref[b]]))
                break
    assert len(pairs) >= 3
    rng = random.Random(6)
    for a, b in pairs:
        report = inc.apply_updates(
            [node_update(a, round(rng.uniform(0, 10), 3)), node_update(b, rng.uniform(0, 10))]
        )
        assert not report.full_resolve
        _assert_fresh(inc, tree, MaxWeightIndependentSet(), backend="numpy")


def test_group_mixing_children_scope_with_a_dense_member():
    """XML validation reads a node's tag while evaluating its children, so
    only it takes the child seeds; the dense member re-solves its own paths."""
    (xml_entry,) = [e for e in table1_entries() if "XML" in e.name]
    tree = xml_entry.make_tree(150, 4)
    rng = random.Random(4)
    tree.node_data = {v: dict(d, weight=rng.uniform(0, 9)) for v, d in tree.node_data.items()}
    prepared = prepare(tree, degree_reduction=False)
    problems = [xml_entry.make_problem().bind(tree), MaxWeightIndependentSet()]
    group = IncrementalSolverGroup(prepared, problems)
    tags = ["book", "chapter", "section", "para"]
    inner = [v for v in sorted(tree.nodes()) if tree.children(v)]
    for _ in range(12):
        ups = [
            node_update(v, {"tag": rng.choice(tags), "weight": rng.uniform(0, 9)})
            for v in rng.sample(inner, 2)
        ]
        reports = group.apply_updates(ups)
        xml_report, mwis_report = reports.values()
        assert set(mwis_report.dirty_seed_clusters) <= set(xml_report.dirty_seed_clusters)
        for member, problem in zip(group.solvers.values(), problems):
            ref = solve(tree, problem, degree_reduction=False)
            got = member.as_pipeline_result()
            assert (got.value, got.output) == (ref.value, ref.output)
            assert got.edge_labels == ref.edge_labels


def test_rows_that_are_not_valid_re_solve_whole():
    """A store row this kernel never validated holds no usable tables, so
    an update landing in it re-solves the whole row, never its paths."""
    tree = gen.with_random_weights(gen.random_attachment_tree(300, seed=9), seed=9)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    index = inc.engine.plan().seed_index()
    dense = inc.solver._dense
    rng = random.Random(9)
    garbage = np.random.default_rng(9)
    for v in rng.sample(sorted(tree.nodes()), 6):
        layer, _e = index.node(v)
        st = dense._stores[layer]
        st.vals[:] = garbage.uniform(-1e6, 1e6, st.vals.shape).astype(st.vals.dtype)
        st.valid[:] = False
        inc.apply_updates([node_update(v, round(rng.uniform(0, 10), 3))])
        _assert_fresh(inc, tree, MaxWeightIndependentSet(), backend="numpy")
