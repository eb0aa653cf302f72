"""Experiments S44 and MEM — high-degree handling and memory accounting.

Section 4.4/5.3: trees with degrees far above n^(delta/2) are handled by
splitting nodes into O(1)-depth auxiliary trees with tagged edges; the
optimisation problems must stay exactly correct.  The MPC model's memory
claim (Theta(n^delta) words per machine, Theta(n) in total) is checked by
reporting the peak per-machine load of the full pipeline as n grows.
"""

from repro.core.pipeline import prepare, solve_on
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import (
    MaxWeightIndependentSet,
    sequential_max_weight_independent_set,
)
from repro.problems.min_weight_dominating_set import (
    MinWeightDominatingSet,
    sequential_min_weight_dominating_set,
)
from repro.trees import generators as gen
from repro.trees.properties import max_degree

from benchmarks.conftest import emit_json, print_table, run_once, scaled


def _high_degree():
    rows = []
    cases = {
        "star": gen.star_tree(scaled(1000, 300)),
        "two-level": gen.two_level_tree(scaled(1500, 400)),
        "broom": gen.broom_tree(scaled(1200, 300)),
    }
    for name, t0 in cases.items():
        tree = gen.with_random_weights(t0, seed=6)
        for problem_cls, reference in [
            (MaxWeightIndependentSet, sequential_max_weight_independent_set),
            (MinWeightDominatingSet, sequential_min_weight_dominating_set),
        ]:
            prepared = prepare(tree)
            res = solve_on(prepared, problem_cls())
            ref = reference(tree)
            aux = len(prepared.reduction.aux_nodes)
            ok = "ok" if abs(res.value - ref) < 1e-6 else "MISMATCH"
            rows.append(
                (
                    name,
                    problem_cls().name,
                    max_degree(tree),
                    aux,
                    f"{res.value:.3f}",
                    f"{ref:.3f}",
                    ok,
                )
            )
    return rows


def test_s44_high_degree_nodes(benchmark):
    rows = run_once(benchmark, _high_degree)
    print_table(
        "Section 4.4/5.3 — high-degree nodes via auxiliary trees",
        ["tree", "problem", "max degree", "aux nodes", "framework", "sequential", "correct"],
        rows,
    )
    emit_json("high_degree", {"rows": rows})
    assert all(r[6] == "ok" for r in rows)
    assert all(r[3] > 0 for r in rows)  # degree reduction actually triggered


def _memory_sweep():
    rows = []
    for n in scaled((250, 1000, 4000), (150, 400)):
        tree = gen.with_random_weights(gen.random_attachment_tree(n, seed=8), seed=8)
        # Capacity study: pinned to the record-level treeops backend, the
        # only one that observes mid-flight per-machine loads.  The array
        # backend keeps its state driver-side and observes none (asserted in
        # tests/test_substrate_equivalence.py).
        sim = MPCSimulator(MPCConfig(n=n, treeops_backend="records"))
        prepared = prepare(tree, sim=sim)
        solve_on(prepared, MaxWeightIndependentSet())
        stats = prepared.sim.stats
        cap = prepared.sim.machine_capacity
        rows.append(
            (
                n,
                prepared.sim.num_machines,
                cap,
                stats.peak_machine_words,
                f"{stats.peak_machine_words / cap:.1f}x",
                stats.peak_round_recv_words,
            )
        )
    return rows


def test_memory_scaling(benchmark):
    rows = run_once(benchmark, _memory_sweep)
    print_table(
        "MPC memory — peak per-machine words vs the Theta(n^delta) capacity",
        [
            "n",
            "machines",
            "capacity (words)",
            "peak load (words)",
            "load/capacity",
            "peak recv/round",
        ],
        rows,
    )
    emit_json("memory_scaling", {"rows": rows})
    # The load/capacity ratio must stay bounded by a constant as n grows 16x
    # (constant factors of the simulator's record encoding are expected).
    ratios = [r[3] / r[2] for r in rows]
    assert max(ratios) <= 4 * min(ratios) + 8
