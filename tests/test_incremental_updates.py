"""Differential fuzz and accounting tests for the incremental update path.

Every test drives :class:`repro.dynamic.IncrementalSolver` with randomized
point-update sequences and asserts, after **every** step, that the
incrementally maintained state is bit-identical — value, root label, edge
labels, node labels, extracted output — to a from-scratch ``solve()`` of the
updated tree on the same backend.

Tier-1 runs a fast subset (fewer steps, two tree families, a problem
sample per axis); setting ``REPRO_FULL_FUZZ=1`` unlocks the full matrix —
all tree families x the full Table-1 registry x both kernel backends x
50-step sequences — for nightly-style runs (see the fuzz-full CI job).
"""

from __future__ import annotations

import os
import random

import pytest

# Canonical SAT payload builder shared with the benchmark harness, so the
# fuzz suite and the perf tracking exercise the same clause shape.
from benchmarks.bench_kernels import _sat_payload
from repro.core.pipeline import prepare, solve
from repro.dp.engine import DP_PASS_LABEL, DP_UPDATE_LABEL
from repro.dp.local_solver import backend_ineligibility
from repro.dp.problem import FiniteStateDP
from repro.dynamic import (
    IncrementalSolver,
    IncrementalSolverGroup,
    PointUpdate,
    edge_update,
    node_update,
)
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.registry import table1_entries
from repro.problems.weighted_max_sat import WeightedMaxSAT
from repro.problems.xml_validation import XMLStructureValidation
from repro.trees import generators as gen

from tests.conftest import FAMILIES

#: Full-matrix fuzzing is opt-in (nightly CI / local REPRO_FULL_FUZZ=1 runs).
FULL_FUZZ = os.environ.get("REPRO_FULL_FUZZ", "").strip().lower() in {"1", "true", "yes", "on"}

N = 80 if FULL_FUZZ else 60
STEPS = 50 if FULL_FUZZ else 10

_FAMILY_MAP = dict(FAMILIES)
#: Bounded-degree families (edge coloring with k=6 must stay feasible).
_BOUNDED_DEGREE = ["path", "binary", "caterpillar"]


def _family_names(bounded_degree_only: bool = False):
    pool = _BOUNDED_DEGREE if bounded_degree_only else list(_FAMILY_MAP)
    if FULL_FUZZ:
        return pool
    fast = [f for f in ("random", "caterpillar") if f in pool]
    return fast or pool[:2]


# --------------------------------------------------------------------------- #
# Payload decorators and payload-aware mutators, per registry entry
# --------------------------------------------------------------------------- #

XML_TAGS = ["book", "chapter", "section", "para"]


def _weighted(tree, seed):
    return gen.with_random_weights(tree, seed=seed)


def _edge_weighted(tree, seed):
    rng = random.Random(seed)
    tree.edge_data = {e: round(rng.uniform(0, 5), 3) for e in tree.edges()}
    return tree




def _leaf_valued(tree, seed):
    return gen.with_random_leaf_values(tree, seed=seed)


def _expression_payload(tree, seed):
    rng = random.Random(seed)
    data = {}
    for v in tree.nodes():
        data[v] = rng.randint(-3, 3) if tree.is_leaf(v) else {"op": rng.choice(["+", "*"])}
    return tree.with_node_data(data)


def _xml_payload(tree, seed):
    depths = tree.depths()
    data = {v: {"tag": XML_TAGS[min(len(XML_TAGS) - 1, int(d))]} for v, d in depths.items()}
    return tree.with_node_data(data)


def _plain(tree, seed):
    return tree


def mutate_node_weight(rng, tree):
    return [node_update(rng.choice(tree.nodes()), round(rng.uniform(0, 10), 3))]


def mutate_edge_weight(rng, tree):
    return [edge_update(rng.choice(tree.edges()), round(rng.uniform(0, 5), 3))]


def mutate_mixed_weights(rng, tree):
    ups = mutate_node_weight(rng, tree)
    if tree.edges() and rng.random() < 0.5:
        ups += mutate_edge_weight(rng, tree)
    return ups


def mutate_leaf_value(rng, tree):
    return [node_update(rng.choice(tree.leaves()), round(rng.uniform(-100, 100), 3))]


def mutate_sat_clauses(rng, tree):
    ups = []
    if rng.random() < 0.7:
        v = rng.choice(tree.nodes())
        clauses = [
            (rng.random() < 0.5, round(rng.uniform(0, 5), 2))
            for _ in range(rng.randint(0, 2))
        ]
        ups.append(node_update(v, {"clauses": clauses}))
    if not ups or rng.random() < 0.5:
        e = rng.choice(tree.edges())
        clauses = [
            (rng.random() < 0.5, rng.random() < 0.5, round(rng.uniform(0, 5), 2))
            for _ in range(rng.randint(0, 2))
        ]
        ups.append(edge_update(e, {"clauses": clauses}))
    return ups


def mutate_expression(rng, tree):
    v = rng.choice(tree.nodes())
    if tree.is_leaf(v):
        return [node_update(v, rng.randint(-3, 3))]
    return [node_update(v, {"op": rng.choice(["+", "*"])})]


def mutate_xml_tag(rng, tree):
    v = rng.choice(tree.nodes())
    return [node_update(v, {"tag": rng.choice(XML_TAGS)})]


#: Per-registry-entry fuzz configuration:
#: entry name -> (payload decorator, mutator, bounded-degree families only).
FUZZ_CONFIG = {
    "Vertex coloring": (_plain, mutate_node_weight, False),
    "Edge coloring": (_plain, mutate_edge_weight, True),
    "Maximal independent set": (_plain, mutate_node_weight, False),
    "Maximum weight independent set": (_weighted, mutate_node_weight, False),
    "Maximum weight matching": (_edge_weighted, mutate_mixed_weights, False),
    "Minimum weight dominating set": (_weighted, mutate_node_weight, False),
    "Minimum weight vertex cover": (_weighted, mutate_node_weight, False),
    "Weighted max-SAT problem": (_sat_payload, mutate_sat_clauses, False),
    "Longest path problem": (_edge_weighted, mutate_edge_weight, False),
    "Sum coloring problem": (_weighted, mutate_node_weight, False),
    "Counting matchings modulo k": (_plain, mutate_node_weight, False),
    "Tree median problem": (_leaf_valued, mutate_leaf_value, False),
    "Evaluating arithmetic expressions": (_expression_payload, mutate_expression, False),
    "Verifying the structure of XML-like documents": (_xml_payload, mutate_xml_tag, False),
    "Subtree sum / minimum / maximum of input labels": (_weighted, mutate_node_weight, False),
}

ENTRIES = {e.name: e for e in table1_entries() if "Bayesian" not in e.name}


def test_fuzz_config_covers_the_full_registry():
    """Every solvable registry entry has a fuzz configuration (and vice versa)."""
    assert set(FUZZ_CONFIG) == set(ENTRIES)


def _backends_for(entry):
    problem = entry.make_problem()
    if isinstance(problem, FiniteStateDP):
        if backend_ineligibility(problem) is None:
            return ["numpy", "python"]
        return ["python"]
    return ["default"]


def _fuzz_cases():
    cases = []
    for name, (_decorate, _mutate, bounded) in sorted(FUZZ_CONFIG.items()):
        for family in _family_names(bounded_degree_only=bounded):
            for backend in _backends_for(ENTRIES[name]):
                cases.append(pytest.param(name, family, backend, id=f"{name}-{family}-{backend}"))
    return cases


def _make_case(name, family, seed):
    entry = ENTRIES[name]
    decorate, mutate, _bounded = FUZZ_CONFIG[name]
    tree = decorate(_FAMILY_MAP[family](N), seed)

    def make_problem():
        p = entry.make_problem()
        return p.bind(tree) if isinstance(p, XMLStructureValidation) else p

    return entry, tree, make_problem, mutate


def _assert_matches_from_scratch(inc, tree, make_problem, entry, backend, context):
    ref = solve(
        tree,
        make_problem(),
        degree_reduction=entry.degree_reduction,
        backend=None if backend == "default" else backend,
    )
    got = inc.as_pipeline_result()
    assert got.value == ref.value, context
    assert got.root_label == ref.root_label, context
    assert got.edge_labels == ref.edge_labels, context
    assert got.node_labels == ref.node_labels, context
    assert got.output == ref.output, context


# --------------------------------------------------------------------------- #
# The differential fuzz
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name,family,backend", _fuzz_cases())
def test_incremental_matches_from_scratch(name, family, backend):
    """Randomized update sequences stay bit-identical to from-scratch solves."""
    entry, tree, make_problem, mutate = _make_case(name, family, seed=23)
    rng = random.Random(hash((name, family, backend)) & 0xFFFF)

    prepared = prepare(
        tree,
        degree_reduction=entry.degree_reduction,
        backend=None if backend == "default" else backend,
    )
    # The prepared tree aliases the input tree, so from-scratch re-solves of
    # `tree` observe exactly the payloads the incremental solver maintains.
    assert prepared.original_tree is tree
    inc = IncrementalSolver(prepared, make_problem())

    resolved_counts = []
    for step in range(STEPS):
        ups = mutate(rng, tree)
        report = inc.apply_updates(ups)
        resolved_counts.append(report.clusters_resolved)
        _assert_matches_from_scratch(
            inc, tree, make_problem, entry, backend, context=(name, family, backend, step)
        )
    # The update path must actually be partial, not a hidden full re-solve.
    assert any(c < len(inc.hc.clusters) for c in resolved_counts)


#: Every count an :class:`UpdateReport` carries (all fields but ``seconds``).
_REPORT_COUNTS = (
    "updates",
    "clusters_resolved",
    "clusters_relabeled",
    "summaries_changed",
    "edges_relabeled",
    "layers_resolved",
    "layers_relabeled",
    "rounds_charged",
    "words_charged",
    "value",
    "value_changed",
    "root_label_changed",
    "full_resolve",
    "dirty_seed_clusters",
)


@pytest.mark.parametrize("family", list(_FAMILY_MAP))
@pytest.mark.parametrize(
    "name",
    [
        "Maximum weight independent set",
        "Maximum weight matching",
        "Verifying the structure of XML-like documents",  # node+children scope
    ],
)
def test_lone_solver_and_one_member_group_apply_identically(name, family):
    """A lone solver is a group of one: the same batches, applied to the same
    tree through ``IncrementalSolver.apply_updates`` and through a one-member
    ``IncrementalSolverGroup``, give the same reports and the same labels."""
    sides = []
    for _ in range(2):
        entry, tree, make_problem, mutate = _make_case(name, family, seed=41)
        prepared = prepare(tree, degree_reduction=entry.degree_reduction)
        sides.append((tree, prepared, make_problem()))
    (tree, prepared, problem), (group_tree, group_prepared, group_problem) = sides
    lone = IncrementalSolver(prepared, problem)
    group = IncrementalSolverGroup(group_prepared, [group_problem])
    member = group.solver()
    rng = random.Random(41)
    for step in range(STEPS + 1):
        if step < STEPS:
            ups = mutate(rng, tree)
            got = lone.apply_updates(ups)
            (via_group,) = group.apply_updates(ups).values()
        else:
            got = lone.refresh()
            (via_group,) = group.refresh().values()
        context = (name, family, step)
        for stat in _REPORT_COUNTS:
            assert getattr(got, stat) == getattr(via_group, stat), (stat, context)
        a, b = lone.as_pipeline_result(), member.as_pipeline_result()
        assert (a.value, a.root_label, a.output) == (b.value, b.root_label, b.output), context
        assert a.edge_labels == b.edge_labels and a.node_labels == b.node_labels, context
    assert tree.node_data == group_tree.node_data
    assert tree.edge_data == group_tree.edge_data


def test_long_mixed_sequence_with_batches():
    """50+ mixed updates (single and batched) on both kernel backends."""
    base = gen.random_attachment_tree(70, seed=31)
    for backend in ("numpy", "python"):
        tree = _weighted(
            gen.random_attachment_tree(70, seed=31), 31
        )  # fresh payloads per backend
        rng = random.Random(97)
        inc = IncrementalSolver(prepare(tree, backend=backend), MaxWeightIndependentSet())
        for step in range(55):
            ups = [
                node_update(rng.choice(tree.nodes()), round(rng.uniform(0, 10), 3))
                for _ in range(rng.randint(1, 3))
            ]
            inc.apply_updates(ups)
            ref = solve(tree, MaxWeightIndependentSet(), backend=backend)
            got = inc.as_pipeline_result()
            assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels), (backend, step)
    assert base.num_nodes == 70


# --------------------------------------------------------------------------- #
# Round / word accounting
# --------------------------------------------------------------------------- #


def _weighted_random_tree(n, seed):
    return gen.with_random_weights(gen.random_attachment_tree(n, seed=seed), seed=seed)


def test_update_charges_strictly_less_than_full_solve():
    tree = _weighted_random_tree(150, 11)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    dp_rounds = inc.initial_stats.charged_by_label[DP_PASS_LABEL]
    dp_words = inc.initial_stats.charged_words_by_label[DP_PASS_LABEL]
    assert dp_rounds > 0 and dp_words > 0
    # What a from-scratch re-solve would pay: prepare()'s measured+charged
    # rounds plus the DP passes.  (Per-layer round charges are size-blind,
    # so the update's DP rounds can only tie the full solve's DP rounds;
    # the strict round win comes from skipping re-clustering, the strict
    # word win from routing only the dirty clusters' summaries/labels.)
    full_resolve_rounds = (
        inc.prepared.normalization_stats.total_rounds
        + inc.prepared.clustering_stats.total_rounds
        + inc.initial_stats.total_rounds
    )

    rng = random.Random(5)
    for _ in range(10):
        report = inc.apply_updates(
            [node_update(rng.choice(tree.nodes()), round(rng.uniform(0, 10), 3))]
        )
        assert not report.full_resolve
        assert 0 < report.rounds_charged <= dp_rounds
        assert report.rounds_charged < full_resolve_rounds
        assert 0 < report.words_charged < dp_words

    # The two channels stay separate in the simulator's per-label stats.
    labels = inc.prepared.sim.stats.charged_by_label
    assert DP_PASS_LABEL in labels and DP_UPDATE_LABEL in labels
    word_labels = inc.prepared.sim.stats.charged_words_by_label
    assert DP_PASS_LABEL in word_labels and DP_UPDATE_LABEL in word_labels


@pytest.mark.parametrize("family", ["path", "binary", "random", "caterpillar"])
def test_single_vertex_update_is_bounded_by_the_layer_count(family):
    """A point update re-solves at most one cluster per layer (O(log n) chain)."""
    tree = gen.with_random_weights(_FAMILY_MAP[family](200), seed=13)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    rng = random.Random(29)
    for _ in range(15):
        report = inc.apply_updates(
            [node_update(rng.choice(tree.nodes()), round(rng.uniform(0, 10), 3))]
        )
        assert not report.full_resolve
        assert report.clusters_resolved <= inc.hc.num_layers
        assert report.layers_resolved <= inc.hc.num_layers


def test_weight_update_recomposes_tensors_without_reenumeration():
    """A weight-only update inside an affine group is a tensor re-compose.

    The dense backend must not re-enumerate the problem's scalar rules for
    new weights covered by an affine structural key — neither for node
    weights (finalize affine) nor for max-SAT clause weights (transition
    affine).
    """
    tree = _weighted_random_tree(120, 3)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    stats = inc.solver._dense.tensors.stats
    before = dict(stats)
    inc.apply_updates([node_update(tree.nodes()[17], 123.456)])
    assert stats["finalize_enumerations"] == before["finalize_enumerations"]
    assert stats["transition_enumerations"] == before["transition_enumerations"]
    assert stats["affine_composes"] > before["affine_composes"]

    sat_tree = _sat_payload(gen.random_attachment_tree(100, seed=6), 6)
    inc_sat = IncrementalSolver(prepare(sat_tree, backend="numpy"), WeightedMaxSAT())
    sat_stats = inc_sat.solver._dense.tensors.stats
    before = dict(sat_stats)
    inc_sat.apply_updates(
        [edge_update(sat_tree.edges()[5], {"clauses": [(True, False, 2.25)]})]
    )
    assert sat_stats["transition_enumerations"] == before["transition_enumerations"]
    assert sat_stats["finalize_enumerations"] == before["finalize_enumerations"]
    assert sat_stats["affine_composes"] > before["affine_composes"]


# --------------------------------------------------------------------------- #
# API contract: errors, fallbacks, refresh
# --------------------------------------------------------------------------- #


def test_unsupported_updates_raise():
    tree = _weighted_random_tree(60, 2)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    with pytest.raises(KeyError):
        inc.apply_updates([node_update("no-such-node", 1.0)])
    with pytest.raises(KeyError):
        inc.apply_updates([edge_update(("no", "edge"), 1.0)])
    with pytest.raises(KeyError):  # not a (child, parent) orientation
        child = tree.edges()[0][0]
        inc.apply_updates([edge_update((tree.parent[child], child), 1.0)])
    with pytest.raises(ValueError):
        inc.apply_updates([PointUpdate("recluster", None, None)])


def test_bad_batch_is_rejected_atomically():
    """A batch with one invalid update applies nothing at all."""
    tree = _weighted_random_tree(80, 6)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    before_value = inc.value
    good = node_update(tree.nodes()[3], 99.0)
    with pytest.raises(KeyError):
        inc.apply_updates([good, node_update("missing", 1.0)])
    # Neither the payload write nor a partial re-solve happened.
    assert tree.node_data[tree.nodes()[3]] != 99.0
    assert inc.value == before_value
    ref = solve(tree, MaxWeightIndependentSet())
    assert inc.as_pipeline_result().value == ref.value


def test_aux_node_updates_rejected():
    tree = gen.with_random_weights(gen.star_tree(120), seed=4)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    aux = next(iter(inc.prepared.reduction.aux_nodes))
    with pytest.raises(KeyError):
        inc.apply_updates([node_update(aux, 1.0)])


def test_bulk_update_falls_back_to_full_resolve():
    tree = _weighted_random_tree(100, 8)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    rng = random.Random(41)
    ups = [node_update(v, round(rng.uniform(0, 10), 3)) for v in tree.nodes()]
    report = inc.apply_updates(ups)
    assert report.full_resolve
    assert report.clusters_resolved == len(inc.hc.clusters)
    ref = solve(tree, MaxWeightIndependentSet())
    got = inc.as_pipeline_result()
    assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)


def test_full_solve_round_charges_are_unchanged_by_the_partial_api():
    """Empty cluster layers still charge their rounds in the full solve.

    star trees produce a clusterless middle layer; the refactored
    bottom-up (``summarize_clusters``) must keep charging it so the full
    solve's round statistics stay identical to previous releases and
    symmetric with the top-down pass: 2 passes x ROUNDS_PER_LAYER x layers.
    """
    from repro.core.pipeline import solve_on
    from repro.dp.engine import ROUNDS_PER_LAYER

    prep = prepare(gen.with_random_weights(gen.star_tree(300), seed=1))
    hc = prep.clustering
    assert any(not hc.layers[i] for i in range(1, hc.num_layers + 1)), (
        "expected an empty layer in the star clustering"
    )
    res = solve_on(prep, MaxWeightIndependentSet())
    assert res.solve_result.rounds == 2 * ROUNDS_PER_LAYER * hc.num_layers


def test_refresh_releases_solver_memos():
    """refresh() is the memory valve: value-keyed tensor caches are dropped,
    while the fixed-size backpointer store is rewritten in place.

    Maximum-weight matching's ``transition_key`` embeds the edge weight, so
    a stream of distinct edge-weight updates grows the transition cache by
    one tensor per distinct weight — the unbounded-serving scenario.
    """
    from repro.problems.max_weight_matching import MaxWeightMatching

    tree = gen.random_attachment_tree(90, seed=21)
    tree.edge_data = {e: 1.0 for e in tree.edges()}
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightMatching())
    dense = inc.solver._dense
    size0 = len(dense.tensors._trans_cache)
    store0 = dense.trace_store_bytes()
    rng = random.Random(8)
    for i in range(6):
        inc.apply_updates([edge_update(rng.choice(tree.edges()), 2.0 + i + rng.random())])
    assert len(dense.tensors._trans_cache) > size0, "distinct weights must grow the cache"
    assert store0 > 0 and dense.trace_store_bytes() == store0
    # Forget one layer's backpointers: refresh() re-solves every row.
    layer_store = next(iter(dense._stores.values()))
    layer_store.valid[:] = False

    inc.refresh()
    # Cleared by refresh(), then lazily repopulated only with the weights
    # still present in the tree (bounded by the live payload set).
    assert len(dense.tensors._trans_cache) <= size0 + 6
    assert layer_store.valid.all()  # the full re-solve rewrote the rows
    assert dense.trace_store_bytes() == store0
    ref = solve(tree, MaxWeightMatching())
    got = inc.as_pipeline_result()
    assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)


def test_relabel_resolves_forgotten_backpointers():
    """Labeling a cluster whose backpointer rows are gone (a respawned pool
    worker's case) re-solves those rows first and stays bit-identical."""
    tree = _weighted_random_tree(120, 31)
    inc = IncrementalSolver(prepare(tree, backend="numpy"), MaxWeightIndependentSet())
    dense = inc.solver._dense
    for st in dense._stores.values():
        st.valid[:] = False
    misses0 = dense.trace_misses
    nodes = sorted(tree.nodes())
    inc.apply_updates([node_update(nodes[3], 50.0), node_update(nodes[40], 0.5)])
    assert dense.trace_misses > misses0
    tree.node_data[nodes[3]] = 50.0
    tree.node_data[nodes[40]] = 0.5
    ref = solve(tree, MaxWeightIndependentSet())
    got = inc.as_pipeline_result()
    assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)


def test_refresh_resyncs_after_external_mutation():
    tree = _weighted_random_tree(90, 14)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    # Mutate payloads behind the solver's back (documented fallback path).
    for v in list(tree.nodes())[:10]:
        tree.node_data[v] = 42.0
        inc.prepared.tree.node_data[v] = 42.0
    report = inc.refresh()
    assert report.full_resolve
    ref = solve(tree, MaxWeightIndependentSet())
    got = inc.as_pipeline_result()
    assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)


def test_degree_reduced_edge_updates_address_original_edges():
    """Edge updates name original-tree edges even when rerouted through aux."""
    tree = gen.star_tree(150)
    tree.edge_data = {e: 1.0 for e in tree.edges()}
    from repro.problems.max_weight_matching import MaxWeightMatching

    inc = IncrementalSolver(prepare(tree), MaxWeightMatching())
    assert not inc.prepared.reduction.is_identity
    rng = random.Random(9)
    for _ in range(8):
        edge = rng.choice(tree.edges())
        inc.apply_updates([edge_update(edge, round(rng.uniform(0, 5), 3))])
        ref = solve(tree, MaxWeightMatching())
        got = inc.as_pipeline_result()
        assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)


@pytest.mark.parametrize("seed", range(8))
def test_mid_pass_failure_is_recoverable_and_never_silently_stale(seed):
    """A payload the problem's rules reject fails *after* the write; the
    solver must refuse to serve stale state and heal on repair.

    The adversarial part: the failed pass may have *written* part of the
    good update's summary chain before raising, so the healing re-apply
    must not prune against those poisoned baselines — randomized (good,
    bad) target pairs across seeds probe exactly the layer interleavings
    where naive pruning silently keeps stale ancestors.
    """
    rng = random.Random(seed)
    tree = _sat_payload(gen.random_attachment_tree(200, seed=seed), seed)
    inc = IncrementalSolver(prepare(tree), WeightedMaxSAT())
    for _round in range(3):
        good = node_update(
            rng.choice(tree.nodes()),
            {"clauses": [(rng.random() < 0.5, round(rng.uniform(0, 5), 2))]},
        )
        bad_node = rng.choice(tree.nodes())
        # The malformed update surfaces as TypeError/ValueError/IndexError
        # depending on which kernel unpacks it; any exception is the contract.
        with pytest.raises(Exception):  # noqa: B017
            inc.apply_updates([good, node_update(bad_node, {"clauses": [("malformed",)]})])
        # Stale state is refused, not served.
        with pytest.raises(RuntimeError, match="stale"):
            inc.as_pipeline_result()
        # Repairing the bad payload re-solves the whole failed batch's
        # chains, including the good update written before the failure.
        inc.apply_updates(
            [node_update(bad_node, {"clauses": [(False, round(rng.uniform(0, 5), 2))]})]
        )
        ref = solve(tree, WeightedMaxSAT())
        got = inc.as_pipeline_result()
        assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels), seed


def test_results_are_snapshots_not_live_views():
    tree = _weighted_random_tree(70, 19)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    r1 = inc.as_pipeline_result()
    before = dict(r1.edge_labels)
    inc.apply_updates([node_update(tree.nodes()[2], 999.0)])
    assert r1.edge_labels == before  # earlier result did not mutate
    # Caller-side mutation cannot corrupt the solver either.
    r2 = inc.as_pipeline_result()
    r2.edge_labels.clear()
    r2.node_labels.clear()
    ref = solve(tree, MaxWeightIndependentSet())
    assert inc.as_pipeline_result().edge_labels == ref.edge_labels


def test_no_op_batch_reports_zero_work():
    tree = _weighted_random_tree(60, 5)
    inc = IncrementalSolver(prepare(tree), MaxWeightIndependentSet())
    report = inc.apply_updates([])
    assert report.clusters_resolved == 0 and report.rounds_charged == 0
    assert report.value == inc.value
