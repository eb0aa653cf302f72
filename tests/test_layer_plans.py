"""Compiled layer plans: compile-once reuse, shape-derived word accounting,
and shipping every Table-1 problem to exec workers."""

import asyncio
import pickle
import random
import warnings

import pytest

from repro.core.pipeline import as_cluster_dp, prepare, solve_many, solve_on
from repro.dp.kernels import dense_local
from repro.dp.kernels.plan import compile_count
from repro.dp.local_solver import backend_ineligibility
from repro.dp.problem import FiniteStateDP
from repro.dynamic import edge_update, node_update
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.problems.counting_matchings import CountMatchingsModK
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.min_weight_vertex_cover import MinWeightVertexCover
from repro.problems.registry import table1_entries
from repro.trees import generators as gen


def _weighted(n=150, seed=3):
    return gen.with_random_weights(gen.random_attachment_tree(n, seed=seed), seed=seed)


def _dense_entries():
    out = []
    for entry in table1_entries():
        problem = entry.make_problem()
        if isinstance(problem, FiniteStateDP) and backend_ineligibility(problem) is None:
            out.append(entry)
    return out


DENSE = _dense_entries()


# --------------------------------------------------------------------------- #
# Shipping problems to exec workers
# --------------------------------------------------------------------------- #


def test_table1_problems_pickle_like_the_pool_ships_them():
    """Every registry problem's solver spec survives the pool's pickle."""
    backend = MPCSimulator(MPCConfig(n=64, exec_backend="process", exec_workers=2)).executor
    shipped = 0
    for entry in table1_entries():
        problem = entry.make_problem()
        if problem is None:  # the Bayesian entry is driven by its benchmark
            continue
        spec = backend._solver_spec(as_cluster_dp(problem))
        kind, payload, solver_backend = pickle.loads(pickle.dumps(spec))
        assert kind == spec[0] and solver_backend == spec[2]
        assert type(payload) is type(spec[1])
        shipped += 1
    assert shipped == len(table1_entries()) - 1


def test_count_matchings_runs_on_the_pool_without_warning():
    tree = gen.random_attachment_tree(300, seed=4)
    inline = solve_on(prepare(tree), CountMatchingsModK(997))
    cfg = MPCConfig(n=300, exec_backend="process", exec_workers=2)
    prepared = prepare(tree, sim=MPCSimulator(cfg))
    # The pool is shared per exec configuration, so its health is cumulative.
    fallbacks = prepared.exec_health()["inline_fallbacks"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pooled = solve_on(prepared, CountMatchingsModK(997))
    assert pooled.value == inline.value
    assert pooled.exec_health["inline_fallbacks"] == fallbacks


# --------------------------------------------------------------------------- #
# Words charged from array shapes equal the per-record sums
# --------------------------------------------------------------------------- #


def _record_words(sizer, records):
    return sum(sizer(r) for r in records)


@pytest.mark.parametrize("accounting", ["exact", "fast"])
@pytest.mark.parametrize("entry", DENSE, ids=[e.name for e in DENSE])
def test_dp_pass_words_equal_per_record_sizes(entry, accounting):
    tree = entry.make_tree(120, 7)
    prepared = prepare(
        tree,
        sim=MPCSimulator(MPCConfig(n=tree.num_nodes, accounting=accounting)),
        light_threshold=3,
    )
    assert not prepared.reduction.is_identity, "the test tree must be degree-reduced"
    res = solve_on(prepared, entry.make_problem(), backend="numpy").solve_result
    sizer = prepared.sim.word_size
    expected = _record_words(sizer, res.summaries.values())
    expected += _record_words(sizer, res.edge_labels.values())
    assert prepared.sim.stats.charged_words_by_label["dp-pass"] == expected


@pytest.mark.parametrize("accounting", ["exact", "fast"])
@pytest.mark.parametrize("entry", DENSE, ids=[e.name for e in DENSE])
def test_dp_update_words_equal_per_record_sizes(entry, accounting, monkeypatch):
    tree = entry.make_tree(120, 8)
    prepared = prepare(
        tree,
        sim=MPCSimulator(MPCConfig(n=tree.num_nodes, accounting=accounting)),
        light_threshold=3,
    )
    assert not prepared.reduction.is_identity
    inc = prepared.incremental(entry.make_problem(), backend="numpy")
    sizer = prepared.sim.word_size
    routed = []
    real_summarize = dense_local.DenseClusterKernel.summarize_layer
    real_label = dense_local.DenseClusterKernel.label_layer

    def summarize(self, batch):
        out, words = real_summarize(self, batch)
        routed.append(_record_words(sizer, out))
        return out, words

    def label(self, batch, outs, ins):
        labels, words = real_label(self, batch, outs, ins)
        routed.append(_record_words(sizer, labels))
        return labels, words

    monkeypatch.setattr(dense_local.DenseClusterKernel, "summarize_layer", summarize)
    monkeypatch.setattr(dense_local.DenseClusterKernel, "label_layer", label)
    rng = random.Random(5)
    nodes = sorted(tree.nodes(), key=repr)
    edges = [(v, tree.parent[v]) for v in nodes if v != tree.root]
    node, edge = rng.choice(nodes), rng.choice(edges)
    updates = [node_update(node, tree.node_data.get(node)), edge_update(edge, 2.5)]
    report = inc.apply_updates(updates)
    assert report.clusters_resolved > 0
    assert report.words_charged == sum(routed) > 0


# --------------------------------------------------------------------------- #
# Plans compile once per clustering
# --------------------------------------------------------------------------- #


def test_plan_compiles_on_first_solve_and_is_reused():
    tree = _weighted()
    before = compile_count()
    prepared = prepare(tree)
    assert compile_count() == before, "prepare() must not compile plans"
    solve_on(prepared, MaxWeightIndependentSet())
    plan = prepared.clustering._dp_plan
    assert plan is not None and compile_count() == before + 1
    solve_on(prepared, MinWeightVertexCover())
    solve_on(prepared, CountMatchingsModK(97), backend="python")
    assert prepared.clustering._dp_plan is plan
    assert compile_count() == before + 1


def test_solve_many_compiles_once():
    before = compile_count()
    out = solve_many(
        _weighted(), [MaxWeightIndependentSet(), MinWeightVertexCover(), CountMatchingsModK(97)]
    )
    assert len(out) == 3
    assert compile_count() == before + 1


def test_serving_batches_reuse_the_plan():
    tree = _weighted(n=100, seed=9)
    prepared = prepare(tree)
    server = prepared.serve([MaxWeightIndependentSet(), MinWeightVertexCover()])
    plan = prepared.clustering._dp_plan
    after_setup = compile_count()
    nodes = sorted(tree.nodes())
    rng = random.Random(2)

    async def main():
        async with server:
            for _ in range(50):
                await server.update(node_update(rng.choice(nodes), rng.uniform(0.5, 9.5)))

    asyncio.run(main())
    assert compile_count() == after_setup
    assert prepared.clustering._dp_plan is plan


def test_pool_workers_reuse_the_shipped_plan():
    """Workers receive the driver's plan with the shipped clustering: their
    batches (built by the worker's own helper from the unpickled clustering,
    exactly as the pool ships it) compile nothing, for every problem."""
    from repro.mpc.exec.pool import _worker_batch

    tree = _weighted(n=400, seed=6)
    prepared = prepare(tree)
    solve_on(prepared, MaxWeightIndependentSet())  # the driver compiles
    shipped = pickle.loads(pickle.dumps(prepared.clustering))
    plan = shipped._dp_plan
    assert plan is not None
    before = compile_count()
    for layer in range(1, plan.hc.num_layers + 1):
        rows = plan.layers[layer].cids % 2 == 0  # one slot's share
        batch = _worker_batch(shipped, layer, rows.nonzero()[0], {}, None)
        assert batch.plan is plan
    assert compile_count() == before

    # End to end on a 2-worker pool: one driver compile, bit-identical values.
    problems = (MaxWeightIndependentSet(), MinWeightVertexCover())
    refs = [solve_on(prepared, p).value for p in problems]
    cfg = MPCConfig(n=400, exec_backend="process", exec_workers=2)
    pooled = prepare(tree, sim=MPCSimulator(cfg))
    before = compile_count()
    assert [solve_on(pooled, p).value for p in problems] == refs
    assert compile_count() == before + 1
