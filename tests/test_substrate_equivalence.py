"""Substrate-equivalence tests: array vs record treeops, fast vs exact words.

Two independent equivalence axes of the rebuilt MPC substrate are pinned
here:

* ``treeops_backend`` — the vectorized integer-array tree subroutines
  (:mod:`repro.mpc.treeops_array`) must produce bit-identical outputs *and*
  bit-identical round/label accounting to the record-level reference path,
  for the raw subroutines and for the full clustering construction built on
  top of them (clusters, layers, hole paths, per-phase round stats,
  charged rounds).
* ``accounting`` — the structural fast sizer must observe the same peak
  word counts and total communication volume as the exact reference walker
  on real pipeline runs, and agree with it on representative record shapes.
"""

import pytest

from repro.clustering.builder import ClusteringBuilder
from repro.core.pipeline import prepare, solve_on
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.mpc.treeops import (
    _capped_subtree_gather_records,
    _compute_depths_records,
    _degree2_path_positions_records,
    capped_subtree_gather,
    compute_depths,
    degree2_path_positions,
)
from repro.mpc.words import fast_word_size, word_size
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.trees import generators as gen

from tests.conftest import FAMILIES, FAMILY_IDS


def sim_pair(n, **kw):
    """Two identically configured sims, one per treeops backend."""
    arr = MPCSimulator(MPCConfig(n=max(4, n), treeops_backend="array", **kw))
    rec = MPCSimulator(MPCConfig(n=max(4, n), treeops_backend="records", **kw))
    return arr, rec


def assert_round_stats_identical(a, b):
    assert a.rounds == b.rounds
    assert a.charged_rounds == b.charged_rounds
    assert a.rounds_by_label == b.rounds_by_label
    assert a.charged_by_label == b.charged_by_label


# --------------------------------------------------------------------------- #
# Raw treeops subroutines
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_compute_depths_backends_bit_identical(family, builder):
    tree = builder(150)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    depths_a = compute_depths(sim_a, dict(tree.parent), tree.root)
    depths_r = _compute_depths_records(sim_r, dict(tree.parent), tree.root)
    assert depths_a == depths_r
    assert all(type(d) is int for d in depths_a.values())
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("cap", [3, 8, 25])
def test_capped_subtree_gather_backends_bit_identical(family, builder, cap):
    tree = builder(130)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    info_a = capped_subtree_gather(
        sim_a, dict(tree.parent), tree.children_map(), tree.root, cap=cap
    )
    info_r = _capped_subtree_gather_records(
        sim_r, dict(tree.parent), tree.children_map(), tree.root, cap=cap
    )
    assert set(info_a) == set(info_r)
    for v in info_r:
        a, r = info_a[v], info_r[v]
        assert (a.node, a.heavy, a.size, a.members) == (r.node, r.heavy, r.size, r.members)
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


def degree2_fragments(tree):
    """Degree-2 path fragments of ``tree``, as the builder would extract them."""
    children = tree.children_map()
    path_parent, path_child = {}, {}
    for v in tree.nodes():
        if v == tree.root or len(children.get(v, [])) != 1:
            continue
        p = tree.parent[v]
        path_parent[v] = p if (p != tree.root and len(children[p]) == 1) else None
        c = children[v][0]
        path_child[v] = c if len(children.get(c, [])) == 1 and c != tree.root else None
    return path_parent, path_child


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_degree2_path_positions_backends_bit_identical(seed):
    tree = gen.random_attachment_tree(160, seed=seed)
    path_parent, path_child = degree2_fragments(tree)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    pos_a = degree2_path_positions(sim_a, path_parent, path_child)
    pos_r = _degree2_path_positions_records(sim_r, path_parent, path_child)
    assert pos_a == pos_r
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


def test_degree2_empty_is_equivalent():
    sim_a, sim_r = sim_pair(8)
    assert degree2_path_positions(sim_a, {}, {}) == {}
    assert _degree2_path_positions_records(sim_r, {}, {}) == {}
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


def round_label_sequence(sim):
    """One ``(measured, label)`` entry per round, in the order they accrued.

    Read from a traced run's timeline: a superstep or a tick is a measured
    round, a charge a charged one.
    """
    seq = []
    for event in sim.obs.timeline:
        if event["type"] == "round" and event["rounds"]:
            entry = (event["kind"] in ("superstep", "tick"), event["label"])
            seq.extend([entry] * event["rounds"])
    return seq


def run_treeops(sim, tree, records):
    """Depths, capped subtree infos and degree-2 positions of ``tree``,
    through one backend's entry points."""
    path_parent, path_child = degree2_fragments(tree)
    if records:
        depths = _compute_depths_records(sim, dict(tree.parent), tree.root)
        gathered = _capped_subtree_gather_records(
            sim, dict(tree.parent), tree.children_map(), tree.root, cap=8
        )
        positions = _degree2_path_positions_records(sim, path_parent, path_child)
    else:
        depths = compute_depths(sim, dict(tree.parent), tree.root)
        gathered = capped_subtree_gather(
            sim, dict(tree.parent), tree.children_map(), tree.root, cap=8
        )
        positions = degree2_path_positions(sim, path_parent, path_child)
    infos = {v: (i.node, i.heavy, i.size, i.members) for v, i in gathered.items()}
    return depths, infos, positions


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_treeops_round_label_sequence_matches_records(family, builder):
    """The array steps tick the record path's rounds in the record path's
    order, not only in the same per-label totals."""
    tree = builder(150)
    sim_a, sim_r = sim_pair(tree.num_nodes, obs="trace")
    assert run_treeops(sim_a, tree, records=False) == run_treeops(sim_r, tree, records=True)
    seq = round_label_sequence(sim_a)
    assert len(seq) == sim_a.stats.rounds > 0
    assert seq == round_label_sequence(sim_r)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tiny_trees_backends_bit_identical(n):
    """Whole-array steps on one-, two- and three-node trees (the last has a
    degree-2 node): same outputs, same round sequence as the record path."""
    tree = gen.path_tree(n)
    sim_a, sim_r = sim_pair(n, obs="trace")
    out_a = run_treeops(sim_a, tree, records=False)
    assert out_a == run_treeops(sim_r, tree, records=True)
    assert out_a[0] == tree.depths()
    assert round_label_sequence(sim_a) == round_label_sequence(sim_r)
    assert_round_stats_identical(sim_a.stats, sim_r.stats)


# --------------------------------------------------------------------------- #
# Full clustering construction
# --------------------------------------------------------------------------- #


def hole_path_of(cluster):
    """Ordered hole path (hole element first), as the layer plan compiles it."""
    if cluster.hole_element is None:
        return []
    parent = cluster.element_parent()
    path = [cluster.hole_element]
    while path[-1] != cluster.top_element:
        path.append(parent[path[-1]])
    return path


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("n", [60, 300])
def test_clustering_backends_bit_identical(family, builder, n):
    tree = builder(n)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    prep_a = prepare(tree, sim=sim_a)
    prep_r = prepare(tree, sim=sim_r)
    hc_a, hc_r = prep_a.clustering, prep_r.clustering

    assert hc_a.layers == hc_r.layers
    assert hc_a.num_layers == hc_r.num_layers
    assert hc_a.final_cluster_id == hc_r.final_cluster_id
    assert set(hc_a.clusters) == set(hc_r.clusters)
    for cid in hc_r.clusters:
        a, r = hc_a.clusters[cid], hc_r.clusters[cid]
        assert a.kind == r.kind and a.layer == r.layer
        assert a.elements == r.elements
        assert a.internal_edges == r.internal_edges
        assert (a.top_element, a.top_node, a.out_edge) == (r.top_element, r.top_node, r.out_edge)
        assert (a.in_edge, a.hole_element) == (r.in_edge, r.hole_element)
        assert hole_path_of(a) == hole_path_of(r)

    # Per-phase round statistics, measured and charged.
    assert_round_stats_identical(prep_a.normalization_stats, prep_r.normalization_stats)
    assert_round_stats_identical(prep_a.clustering_stats, prep_r.clustering_stats)
    assert hc_a.stats["rounds"] == hc_r.stats["rounds"]
    assert hc_a.stats["charged_rounds"] == hc_r.stats["charged_rounds"]
    assert hc_a.stats["iteration_log"] == hc_r.stats["iteration_log"]

    # And a DP solve on top sees no difference either.
    res_a = solve_on(prep_a, MaxWeightIndependentSet())
    res_r = solve_on(prep_r, MaxWeightIndependentSet())
    assert res_a.value == res_r.value
    assert res_a.edge_labels == res_r.edge_labels
    assert res_a.rounds == res_r.rounds


@pytest.mark.parametrize("seed", [2, 5, 11])
def test_clustering_backends_bit_identical_random_seeds(seed):
    tree = gen.random_attachment_tree(400, seed=seed)
    sim_a, sim_r = sim_pair(tree.num_nodes)
    hc_a = prepare(tree, sim=sim_a).clustering
    hc_r = prepare(tree, sim=sim_r).clustering
    assert hc_a.layers == hc_r.layers
    assert {c: hc_a.clusters[c].elements for c in hc_a.clusters} == {
        c: hc_r.clusters[c].elements for c in hc_r.clusters
    }
    assert hc_a.stats["rounds"] == hc_r.stats["rounds"]
    assert hc_a.stats["charged_rounds"] == hc_r.stats["charged_rounds"]


def test_builder_incremental_maps_match_reference_scan():
    """The incrementally maintained builder views equal the full rescans."""
    tree = gen.random_attachment_tree(250, seed=3)
    sim = MPCSimulator(MPCConfig(n=tree.num_nodes))
    builder = ClusteringBuilder(sim, tree)

    orig_make = builder._make_cluster

    def checked_make(*args, **kwargs):
        cid = orig_make(*args, **kwargs)
        assert builder.uncolored == {
            e for e in builder.elements if e not in builder.colored
        }
        # The rescan lists the final cluster element as its own colored child
        # (its parent pointer is a self-loop); no construction step ever reads
        # that state, and the incremental map deliberately drops the self-loop.
        reference = {
            p: kids
            for p, kids in builder._colored_children_map().items()
            if [p] != kids or builder.parent_elem.get(p) != p
        }
        assert builder.colored_children == reference
        return cid

    builder._make_cluster = checked_make
    builder.build()
    assert builder.uncolored == set()


# --------------------------------------------------------------------------- #
# Accounting modes
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "record",
    [
        7,
        -3,
        2**200,
        3.5,
        True,
        None,
        "clause-literal",
        b"\x00\x01",
        (4, 5, 6),
        (1, frozenset({2, 3, 4}), frozenset(), False),
        ("samples", [1, 2, 3, 9_999_999]),
        ("resp", 4, (4, frozenset({4, 5}), frozenset({5}), False)),
        {"clauses": [(True, 2.5)], "w": 1},
        [("L", (3, 1)), ("R", (3, 2))],
        frozenset({1.5, 2.5}),
        set(),
        (2**80, 1),
    ],
    ids=repr,
)
def test_fast_word_size_matches_exact(record):
    assert fast_word_size(record) == word_size(record)


def test_cached_word_count_is_authoritative():
    class Table:
        __mpc_words__ = 17

    assert word_size(Table()) == 17
    assert fast_word_size(Table()) == 17


def test_cached_word_count_wins_on_container_subclasses():
    # Both sizers must agree on cached records even when the record is a
    # container subclass (a NamedTuple, say) that the structural rules would
    # otherwise walk.
    class SizedTuple(tuple):
        __mpc_words__ = 5

    rec = SizedTuple((1, 2, 3, 4, 5, 6, 7, 8, 9))
    assert word_size(rec) == 5
    assert fast_word_size(rec) == 5


@pytest.mark.parametrize("treeops", ["records", "array"])
@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_fast_and_exact_accounting_observe_identical_peaks(family, builder, treeops):
    tree = builder(120)
    sims = {
        mode: MPCSimulator(MPCConfig(n=tree.num_nodes, accounting=mode, treeops_backend=treeops))
        for mode in ("exact", "fast")
    }
    stats = {}
    for mode, sim in sims.items():
        prep = prepare(tree, sim=sim)
        solve_on(prep, MaxWeightIndependentSet())
        stats[mode] = sim.stats
    e, f = stats["exact"], stats["fast"]
    assert e.peak_machine_words == f.peak_machine_words
    assert e.peak_round_send_words == f.peak_round_send_words
    assert e.peak_round_recv_words == f.peak_round_recv_words
    assert e.total_words_sent == f.total_words_sent
    assert e.total_messages == f.total_messages
    assert e.rounds == f.rounds and e.charged_rounds == f.charged_rounds


def test_invalid_modes_rejected():
    with pytest.raises(ValueError):
        MPCConfig(n=64, accounting="lazy")
    with pytest.raises(ValueError):
        MPCConfig(n=64, accounting="off")
    with pytest.raises(ValueError):
        MPCConfig(n=64, treeops_backend="gpu")


# --------------------------------------------------------------------------- #
# Peak-memory observability of the two treeops backends
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_only_records_treeops_observe_machine_loads(family, builder):
    """The records path feeds its mid-flight per-machine loads into the peak
    statistics; the array path keeps its state on the driver and observes
    none, which is why capacity studies pin ``treeops_backend="records"``."""
    tree = gen.with_random_weights(builder(150), seed=3)
    peaks = {}
    for backend in ("array", "records"):
        sim = MPCSimulator(MPCConfig(n=tree.num_nodes, treeops_backend=backend))
        prepare(tree, sim=sim)
        peaks[backend] = sim.stats.peak_machine_words
    assert peaks["records"] > 0
    assert peaks["array"] == 0
