"""Tests for the layer-wide hole-path batching and the clause-aware affine
decomposition (weighted max-SAT), plus the satellite bugfixes riding along:
NaN/empty handling in the MPC extremum folds, the no-NaN guarantee of the
affine composition, and solve_many's per-problem backend validation.
"""

import random

import numpy as np
import pytest

from repro.core.pipeline import prepare, solve_many, solve_on
from repro.dp.kernels.dense_local import DenseClusterKernel
from repro.dp.local_solver import FiniteStateClusterSolver
from repro.dp.problem import EdgeInfo, FiniteStateDP, NodeInput
from repro.dp.semiring import MIN_PLUS
from repro.mpc.config import MPCConfig
from repro.mpc.primitives import mpc_max, mpc_min
from repro.mpc.simulator import MPCSimulator
from repro.problems.edge_coloring import EdgeColoring
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.weighted_max_sat import (
    WeightedMaxSAT,
    max_sat_value_of_assignment,
    sequential_max_sat,
)
from repro.trees import generators as gen

from tests.conftest import FAMILIES, FAMILY_IDS


def _with_clauses(tree, seed, max_per_node=1, max_per_edge=1):
    """Decorate a tree with random unit and binary clauses (the SAT input)."""
    rng = random.Random(seed)
    node_data = {
        v: {
            "clauses": [
                (rng.random() < 0.5, round(rng.uniform(0, 5), 2))
                for _ in range(rng.randint(0, max_per_node))
            ]
        }
        for v in tree.nodes()
    }
    t = tree.with_node_data(node_data)
    t.edge_data = {
        e: {
            "clauses": [
                (rng.random() < 0.5, rng.random() < 0.5, round(rng.uniform(0, 5), 2))
                for _ in range(rng.randint(0, max_per_edge))
            ]
        }
        for e in tree.edges()
    }
    return t


# --------------------------------------------------------------------------- #
# Backend equivalence: batched hole paths + clause-aware max-SAT
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("family,builder", FAMILIES, ids=FAMILY_IDS)
def test_max_sat_backends_identical_across_families(family, builder):
    """The clause-aware affine path is bit-identical on every tree family."""
    tree = _with_clauses(builder(140), seed=13)
    prepared = prepare(tree)
    res_py = solve_on(prepared, WeightedMaxSAT(), backend="python")
    res_np = solve_on(prepared, WeightedMaxSAT(), backend="numpy")
    assert res_py.value == res_np.value
    assert res_py.edge_labels == res_np.edge_labels
    assert res_py.node_labels == res_np.node_labels
    assert res_np.value == pytest.approx(sequential_max_sat(tree))


@pytest.mark.parametrize("seed", range(8))
def test_max_sat_random_clause_sets_property(seed):
    """Property-style sweep: random tree shapes and 0..3 clauses per site.

    Multi-clause sets exercise the per-pattern weight aggregation; the two
    backends must stay bit-identical, match the sequential reference, and
    return an assignment that actually scores the reported value.
    """
    rng = random.Random(seed)
    n = rng.randint(30, 90)
    base = gen.random_attachment_tree(n, seed=seed)
    tree = _with_clauses(base, seed=seed + 100, max_per_node=3, max_per_edge=3)
    prepared = prepare(tree)
    res_py = solve_on(prepared, WeightedMaxSAT(), backend="python")
    res_np = solve_on(prepared, WeightedMaxSAT(), backend="numpy")
    assert res_py.value == res_np.value
    assert res_py.edge_labels == res_np.edge_labels
    assert res_np.value == pytest.approx(sequential_max_sat(tree))
    assignment = res_np.output["assignment"]
    assert max_sat_value_of_assignment(tree, assignment) == pytest.approx(res_np.value)


def test_hole_path_batching_actually_runs(monkeypatch):
    """A path tree drives clusters through the batched hole-path scheduler.

    Guards against the scheduler silently degrading to per-element solves
    (results would stay correct but the batching would be dead code): at
    least one stacked hole-path group — several clusters' path elements in
    one kernel call — must be solved.
    """
    from repro.dp.kernels import dense_local

    stacked = {"mat": 0, "node": 0}
    orig_mat = DenseClusterKernel._mat_group
    orig_node = dense_local._NodeGroups._solve

    def count_mat(self, batch, st, mem, on_path):
        if on_path and len(mem) > 1:
            stacked["mat"] += 1
        return orig_mat(self, batch, st, mem, on_path)

    def count_node(self, st, pos, sig, path_j):
        if path_j >= 0 and len(pos) > 1:
            stacked["node"] += 1
        return orig_node(self, st, pos, sig, path_j)

    monkeypatch.setattr(DenseClusterKernel, "_mat_group", count_mat)
    monkeypatch.setattr(dense_local._NodeGroups, "_solve", count_node)
    tree = gen.with_random_weights(gen.path_tree(300), seed=5)
    # Inline: the counters observe this process, not pool workers.
    sim = MPCSimulator(MPCConfig(n=300, exec_backend="inline"))
    res = solve_on(prepare(tree, sim=sim), MaxWeightIndependentSet(), backend="numpy")
    assert stacked["mat"] + stacked["node"] > 0
    assert res.value == pytest.approx(
        solve_on(prepare(tree), MaxWeightIndependentSet(), backend="python").value
    )


def test_hole_paths_in_the_layer_plan_are_ordered_and_cached():
    """Every indegree-one cluster's hole path is compiled hole first, and each
    path element absorbs its predecessor through its ``path_pos`` slot."""
    from repro.dp.kernels.plan import HOLE_CHILD

    tree = gen.with_random_weights(gen.caterpillar_tree(80), seed=3)
    prepared = prepare(tree)
    plan = prepared.engine().plan()
    assert prepared.engine().plan() is plan  # cached on the clustering
    hc = prepared.clustering
    seen = 0
    for layer in range(1, hc.num_layers + 1):
        lp = plan.layers[layer]
        for row, cid in enumerate(lp.cids.tolist()):
            cluster = hc.clusters[cid]
            lo, hi = int(lp.elem_ptr[row]), int(lp.elem_ptr[row + 1])
            on_path = [e for e in range(lo, hi) if lp.depth[e] >= 0]
            if cluster.in_edge is None:
                assert on_path == [] and lp.hole[row] == -1
                continue
            seen += 1
            path = sorted(on_path, key=lambda e: lp.depth[e])
            assert [int(lp.depth[e]) for e in path] == list(range(len(path)))
            assert path[0] == lp.hole[row] and path[-1] == lp.top[row]
            for prev, e in zip([None] + path, path):
                slot = lp.child_ptr[e] + lp.path_pos[e]
                assert lp.child[slot] == (HOLE_CHILD if prev is None else prev)
    assert seen > 0


# --------------------------------------------------------------------------- #
# Unreachable states through the affine decomposition (inf * 0 guard)
# --------------------------------------------------------------------------- #


class _AffineGapProblem(FiniteStateDP):
    """Min-plus problem whose transition tensor contains identity (+inf)
    entries while both rules go through the affine decomposition."""

    states = ("lo", "hi")
    acc_states = ("even", "odd")
    semiring = MIN_PLUS
    name = "affine-gap"

    def init_key(self, v):
        return ()

    def node_init(self, v):
        yield ("even", 0.0)

    def transition(self, v, acc, child_state, edge):
        w = edge.weight(0.0) if edge is not None else 0.0
        if child_state == "hi":
            if acc == "even":
                yield ("odd", w)
            # acc == "odd": infeasible — identity (+inf) cells in the tensor
        else:
            yield (acc, 0.5 * w)

    def transition_affine_key(self, v, edge):
        return ("gap-edge",), (edge.weight(0.0),)

    def transition_affine_probe(self, v, edge, weights):
        return v, EdgeInfo(edge=edge.edge, kind=edge.kind, data={"weight": weights[0]})

    def finalize(self, v, acc):
        w = v.weight(0.0)
        if acc == "even":
            yield ("lo", w)
            yield ("hi", 0.0)
        else:
            yield ("hi", w)  # "lo" unreachable from "odd": identity cells in F

    def finalize_affine_key(self, v):
        return ("gap-node",), (v.weight(0.0),)

    def finalize_affine_probe(self, v, weights):
        return NodeInput(node=v.node, data=weights[0], is_auxiliary=v.is_auxiliary)


class TestAffineIdentityEntries:
    def test_composed_tables_carry_identity_without_nan(self):
        solver = FiniteStateClusterSolver(_AffineGapProblem(), backend="numpy")
        tensors = solver._dense.tensors
        v = NodeInput(node=0, data=1.5)
        edge = EdgeInfo(edge=(1, 0), data={"weight": 2.0})
        T = tensors.transition_tensor(v, edge)
        F = tensors.finalize_mat(v)
        assert np.isinf(T).any() and np.isinf(F).any()  # identity rows survive
        assert not np.isnan(T).any() and not np.isnan(F).any()

    def test_backends_identical_with_identity_entries(self):
        tree = gen.with_random_weights(gen.caterpillar_tree(120), seed=9)
        prepared = prepare(tree)
        res_py = solve_on(prepared, _AffineGapProblem(), backend="python")
        res_np = solve_on(prepared, _AffineGapProblem(), backend="numpy")
        assert res_py.value == res_np.value
        assert res_py.edge_labels == res_np.edge_labels

    def test_nonfinite_affine_weight_raises(self):
        solver = FiniteStateClusterSolver(MaxWeightIndependentSet(), backend="numpy")
        tensors = solver._dense.tensors
        v = NodeInput(node=0, data=1.0)
        pair = tensors.finalize_affine_pair((False,), v, 1.0)
        assert pair is not None
        base, masks = pair
        with pytest.raises(FloatingPointError, match="non-finite affine weight"):
            tensors.compose_affine(base, masks, np.array([[float("inf")]]))

    def test_affine_arity_mismatch_raises(self):
        solver = FiniteStateClusterSolver(MaxWeightIndependentSet(), backend="numpy")
        tensors = solver._dense.tensors
        v = NodeInput(node=0, data=1.0)
        base, masks = tensors.finalize_affine_pair((False,), v, 1.0)
        with pytest.raises(ValueError, match="must declare the same number"):
            tensors.compose_affine(base, masks, np.array([[1.0, 2.0]]))


# --------------------------------------------------------------------------- #
# MPC extremum folds: NaN and empty-input handling
# --------------------------------------------------------------------------- #

NAN = float("nan")


class TestMpcExtremes:
    def test_min_max_basic(self, simulator):
        records = [3.0, -1.5, 7.25, 0.0]
        assert mpc_max(simulator, records, lambda x: x) == 7.25
        assert mpc_min(simulator, records, lambda x: x) == -1.5

    def test_nan_raises_by_default(self, simulator):
        with pytest.raises(ValueError, match="NaN"):
            mpc_max(simulator, [1.0, NAN, 2.0], lambda x: x)
        with pytest.raises(ValueError, match="NaN"):
            mpc_min(simulator, [NAN], lambda x: x)

    def test_nan_skip_ignores_nan_records(self, simulator):
        assert mpc_max(simulator, [1.0, NAN, 2.0], lambda x: x, nan="skip") == 2.0
        assert mpc_min(simulator, [NAN, 4.0, 9.0], lambda x: x, nan="skip") == 4.0

    def test_all_nan_under_skip_raises(self, simulator):
        with pytest.raises(ValueError, match="all records were NaN"):
            mpc_max(simulator, [NAN, NAN], lambda x: x, nan="skip")

    def test_empty_records_raise(self, simulator):
        with pytest.raises(ValueError, match="empty record set"):
            mpc_min(simulator, [], lambda x: x)
        with pytest.raises(ValueError, match="empty record set"):
            mpc_max(simulator, [], lambda x: x)

    def test_unknown_nan_policy_rejected(self, simulator):
        with pytest.raises(ValueError, match="nan must be"):
            mpc_max(simulator, [1.0], lambda x: x, nan="ignore")


# --------------------------------------------------------------------------- #
# solve_many: batch validation and per-problem backend fallback
# --------------------------------------------------------------------------- #


class TestSolveManyValidation:
    def test_numpy_request_falls_back_per_problem_with_warning(self):
        tree = gen.with_random_weights(gen.path_tree(40), seed=4)
        with pytest.warns(RuntimeWarning, match="falling back to the scalar backend"):
            out = solve_many(
                tree, [MaxWeightIndependentSet(), EdgeColoring(k=3)], backend="numpy"
            )
        assert set(out) == {"maximum-weight independent set", "edge coloring"}
        solo = solve_on(prepare(tree), MaxWeightIndependentSet(), backend="numpy")
        assert out["maximum-weight independent set"].value == solo.value

    def test_unsupported_problem_type_rejected_before_solving(self):
        tree = gen.path_tree(20)
        with pytest.raises(TypeError, match="unsupported problem type"):
            solve_many(tree, [MaxWeightIndependentSet(), object()])

    def test_duplicate_names_warn(self):
        tree = gen.with_random_weights(gen.path_tree(30), seed=6)
        with pytest.warns(RuntimeWarning, match="duplicate problem name"):
            solve_many(tree, [MaxWeightIndependentSet(), MaxWeightIndependentSet()])
