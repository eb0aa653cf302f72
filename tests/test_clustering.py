"""Tests of degree reduction and the hierarchical clustering (Section 4)."""

import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.clustering.builder import build_hierarchical_clustering
from repro.clustering.degree_reduction import EdgeKind, reduce_degrees
from repro.clustering.invariants import check_clustering, cluster_vertex_sets
from repro.clustering.model import ClusterKind
from repro.dp.kernels.plan import clustering_plan
from repro.trees import generators as gen
from repro.trees.properties import diameter, max_degree
from repro.trees.tree import RootedTree

from tests.conftest import FAMILIES, FAMILY_IDS, make_sim


class TestDegreeReduction:
    def test_no_op_below_threshold(self):
        t = gen.balanced_kary_tree(100, k=3)
        red = reduce_degrees(t, threshold=5)
        assert red.is_identity
        assert red.tree.num_nodes == 100

    @pytest.mark.parametrize("n,threshold", [(100, 4), (300, 8), (500, 16)])
    def test_star_reduced_to_bounded_degree(self, n, threshold):
        t = gen.star_tree(n)
        red = reduce_degrees(t, threshold=threshold)
        assert max_degree(red.tree) <= threshold + 1
        # Original nodes are preserved; only auxiliary nodes are added.
        assert set(t.nodes()) <= set(red.tree.nodes())
        assert len(red.aux_nodes) == red.tree.num_nodes - n

    def test_edge_kinds_tagged(self):
        t = gen.star_tree(50)
        red = reduce_degrees(t, threshold=5)
        kinds = set(red.edge_kinds.values())
        assert kinds == {EdgeKind.ORIGINAL, EdgeKind.AUXILIARY}
        # every original node keeps exactly one original up-edge
        original_edges = [e for e, k in red.edge_kinds.items() if k == EdgeKind.ORIGINAL]
        assert len(original_edges) == len(t.edges())

    def test_diameter_increase_is_bounded(self):
        t = gen.two_level_tree(900)
        red = reduce_degrees(t, threshold=6)
        assert diameter(red.tree) <= diameter(t) + 2 * math.ceil(math.log(900, 6)) + 2

    def test_original_parent_tracking(self):
        t = gen.star_tree(60)
        red = reduce_degrees(t, threshold=5)
        for aux in red.aux_nodes:
            assert red.original_parent[aux] == 0
        for v in range(1, 60):
            assert red.original_parent[v] == 0

    def test_project_labels_restores_original_edges(self):
        """The plan's original-tree label keys drop the auxiliary nodes and
        key every edge by its original parent."""
        t = gen.star_tree(40)
        sim = make_sim(40)
        red = reduce_degrees(t, threshold=5)
        hc = build_hierarchical_clustering(sim, red.tree)
        reduced, original = clustering_plan(hc, red).label_keys()
        assert not red.is_identity and reduced is not original
        assert set(original.edges()[0]) == set(t.edges())
        assert set(original.nodes) == set(t.nodes())
        assert set(reduced.edges()[0]) == set(red.tree.edges())

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            reduce_degrees(gen.path_tree(5), threshold=1)


class TestClusteringInvariants:
    @pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("n", [1, 2, 17, 200, 500])
    def test_invariants_hold(self, family, builder, n):
        tree = builder(n)
        sim = make_sim(n)
        red = reduce_degrees(tree, threshold=sim.config.light_threshold())
        hc = build_hierarchical_clustering(sim, red.tree)
        check_clustering(hc)

    @pytest.mark.parametrize("delta", [0.3, 0.5, 0.7])
    def test_invariants_across_delta(self, delta):
        tree = gen.random_attachment_tree(300, seed=7)
        sim = make_sim(300, delta=delta)
        red = reduce_degrees(tree, threshold=sim.config.light_threshold())
        hc = build_hierarchical_clustering(sim, red.tree)
        check_clustering(hc)

    def test_topmost_layer_single_cluster(self):
        tree = gen.random_attachment_tree(200, seed=1)
        sim = make_sim(200)
        hc = build_hierarchical_clustering(sim, tree)
        assert len(hc.layers[hc.num_layers]) == 1
        assert hc.final_cluster.kind == ClusterKind.FINAL

    def test_vertex_sets_cover_tree(self):
        tree = gen.random_attachment_tree(150, seed=3)
        sim = make_sim(150)
        hc = build_hierarchical_clustering(sim, tree)
        sets = cluster_vertex_sets(hc)
        assert sets[hc.final_cluster_id] == set(tree.nodes())

    def test_cluster_sizes_respect_capacity(self):
        tree = gen.path_tree(600)
        sim = make_sim(600)
        hc = build_hierarchical_clustering(sim, tree)
        assert hc.max_cluster_size() <= hc.stats["cluster_capacity"]

    def test_explicit_thresholds_respected(self):
        tree = gen.path_tree(300)
        sim = make_sim(300)
        hc = build_hierarchical_clustering(sim, tree, light_threshold=6)
        check_clustering(hc, cluster_capacity=None)
        # with threshold 6 the path is cut into many small indegree-one clusters
        indeg1 = [c for c in hc.clusters.values() if c.kind == ClusterKind.INDEGREE_ONE]
        assert indeg1
        assert all(c.num_elements <= 12 for c in indeg1)

    def test_rounds_grow_with_diameter_not_size(self):
        wide = gen.broom_tree(800)     # D = 5
        deep = gen.path_tree(800)      # D = 799
        sim_w, sim_d = make_sim(800), make_sim(800)
        hc_w = build_hierarchical_clustering(sim_w, wide)
        hc_d = build_hierarchical_clustering(sim_d, deep)
        assert hc_w.stats["total_rounds"] < hc_d.stats["total_rounds"]

    def test_rounds_roughly_independent_of_n_at_fixed_diameter(self):
        small = gen.broom_tree(200)
        large = gen.broom_tree(1600)
        sim_s, sim_l = make_sim(200), make_sim(1600)
        r_small = build_hierarchical_clustering(sim_s, small).stats["total_rounds"]
        r_large = build_hierarchical_clustering(sim_l, large).stats["total_rounds"]
        assert r_large <= 2 * r_small + 10

    def test_iteration_log_records_shrinkage(self):
        tree = gen.path_tree(500)
        sim = make_sim(500)
        hc = build_hierarchical_clustering(sim, tree)
        log = hc.stats["iteration_log"]
        assert log
        for entry in log:
            assert entry["uncolored_after"] <= entry["uncolored_before"]


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200), st.sampled_from([0.4, 0.5, 0.6]))
@settings(max_examples=20, deadline=None)
def test_clustering_invariants_on_random_trees(raw, delta):
    n = len(raw) + 1
    parent = {0: 0}
    for v in range(1, n):
        parent[v] = raw[v - 1] % v
    tree = RootedTree.from_parent_map(parent, root=0)
    sim = make_sim(n, delta=delta)
    red = reduce_degrees(tree, threshold=sim.config.light_threshold())
    hc = build_hierarchical_clustering(sim, red.tree)
    check_clustering(hc)


#: Prepares a weighted tree, then prints a digest of every cluster's element
#: list (in cid order) and the MWIS / MWM values' exact bits.
_HASH_SEED_PROBE = """
import hashlib, random
from repro.core.pipeline import prepare, solve_on
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.max_weight_matching import MaxWeightMatching
from repro.trees import generators as gen
tree = gen.with_random_weights(gen.random_attachment_tree(3000, seed=4), seed=4)
rng = random.Random(4)
tree.edge_data = {e: rng.uniform(0.5, 10.0) for e in tree.edges()}
prepared = prepare(tree)
hc = prepared.clustering
elements = repr([hc.clusters[c].elements for c in sorted(hc.clusters)])
print(hashlib.sha256(elements.encode()).hexdigest())
print(solve_on(prepared, MaxWeightIndependentSet()).value.hex())
print(solve_on(prepared, MaxWeightMatching()).value.hex())
"""


def test_clustering_does_not_depend_on_the_hash_seed():
    """Element order and cid numbering follow the tree, not PYTHONHASHSEED.

    The builder's elements are tuples holding a string tag, so iterating a
    set of them would follow the interpreter's string hashing; the cluster
    element lists — and with them the association of the DP's float sums —
    would then change from one interpreter to the next.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.split())
    assert outs[0] == outs[1]
