"""Experiment P — pipeline-phase profile: normalize / degree-reduce / cluster / DP.

PRs 1–2 made the DP-solve phase fast; this experiment tracks the *other*
phases so a `prepare()` regression is as visible as a kernel regression.  It
profiles the full pipeline at the acceptance size (n >= 10^4, random
attachment tree, seed 2):

* ``prepare()`` — normalization, degree reduction and the hierarchical
  clustering, measured per phase, under both treeops backends:
  ``records`` (the record-level reference path on the simulated machines)
  and ``array`` (the vectorized integer-array substrate, the default).
* the DP-solve phase — the full finite-state Table-1 suite on the prepared
  clustering, with the default (``auto`` → NumPy) backend.

Besides the timings, the harness asserts that both treeops backends produce
bit-identical clusterings and round statistics, and that the array path wins
the clustering phase by at least the acceptance factor of 5x.  Results are
written to ``BENCH_pipeline.json`` for the CI perf artifacts.

Noise model: as in bench_kernels, the repeats of the two backends are
interleaved (records, array, records, array, ...) so both sample the same
wall-clock window, and the per-phase *minimum* over the repeats estimates the
clean-machine time.
"""

import os
import time

from repro.core.pipeline import prepare, solve_on
from repro.mpc.config import MPCConfig
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.trees import generators as gen

from benchmarks.bench_kernels import PROBLEMS, _sat_payload
from benchmarks.conftest import SMOKE, emit_json, print_table, run_once, scaled

#: The acceptance regime: n >= 10^4 nodes (reduced in smoke mode).
N = scaled(10_000, 500)
SEED = 2

BACKENDS = ("records", "array")
PHASES = ("normalize", "degree_reduction", "clustering")


def _clustering_fingerprint(prep):
    hc = prep.clustering
    return (
        hc.layers,
        hc.final_cluster_id,
        {
            cid: (
                c.kind,
                c.layer,
                tuple(c.elements),
                tuple(c.internal_edges),
                c.top_element,
                c.top_node,
                c.out_edge,
                c.in_edge,
                c.hole_element,
            )
            for cid, c in hc.clusters.items()
        },
        prep.clustering_stats.rounds,
        prep.clustering_stats.charged_rounds,
        prep.clustering_stats.rounds_by_label,
        prep.clustering_stats.charged_by_label,
    )


def _measure():
    base = gen.random_attachment_tree(N, seed=SEED)
    weighted = gen.with_random_weights(base, seed=SEED)
    repeats = 1 if SMOKE else 7

    phase_runs = {b: {p: [] for p in PHASES + ("prepare_total",)} for b in BACKENDS}
    fingerprints = {}
    for _ in range(repeats):
        for backend in BACKENDS:
            sim = MPCSimulator(MPCConfig(n=N, treeops_backend=backend))
            t0 = time.perf_counter()
            prep = prepare(weighted, sim=sim)
            total = time.perf_counter() - t0
            for p in PHASES:
                phase_runs[backend][p].append(prep.timings[p])
            phase_runs[backend]["prepare_total"].append(total)
            fingerprints[backend] = _clustering_fingerprint(prep)

    identical = fingerprints["records"] == fingerprints["array"]

    # DP-solve phase: the full Table-1 suite on an array-backed preparation
    # (the clustering is backend-independent — just asserted — and reused).
    prepared = prepare(weighted)
    prepared_sat = prepare(_sat_payload(base, SEED))
    dp_runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for name, make in PROBLEMS:
            target = prepared_sat if "SAT" in name else prepared
            solve_on(target, make())
        dp_runs.append(time.perf_counter() - t0)

    mins = {b: {p: min(r) for p, r in phase_runs[b].items()} for b in BACKENDS}
    return mins, min(dp_runs), identical


def test_pipeline_phase_profile(benchmark):
    mins, dp_s, identical = run_once(benchmark, _measure)
    cluster_speedup = mins["records"]["clustering"] / mins["array"]["clustering"]
    prepare_speedup = mins["records"]["prepare_total"] / mins["array"]["prepare_total"]

    rows = []
    for p in PHASES + ("prepare_total",):
        rec_ms, arr_ms = mins["records"][p] * 1000, mins["array"][p] * 1000
        ratio = rec_ms / arr_ms if arr_ms > 0 else float("inf")
        rows.append((p, f"{rec_ms:.1f}", f"{arr_ms:.1f}", f"{ratio:.2f}x"))
    rows.append(("dp suite (11 problems)", "-", f"{dp_s * 1000:.1f}", "-"))
    print_table(
        f"Pipeline phases — treeops records vs array backend (n={N}, random tree)",
        ["phase", "records ms", "array ms", "speedup"],
        rows,
    )
    print(f"clustering bit-identical across backends: {'yes' if identical else 'NO'}")

    emit_json(
        "pipeline",
        {
            "n": N,
            "seed": SEED,
            "phases_ms": {b: {p: mins[b][p] * 1000 for p in mins[b]} for b in BACKENDS},
            "dp_suite_ms": dp_s * 1000,
            "clustering_speedup": cluster_speedup,
            "prepare_speedup": prepare_speedup,
            "bit_identical": identical,
        },
    )

    assert identical, "treeops backends disagree on the clustering"
    if not SMOKE and N >= 10_000:
        # Acceptance bar: the array substrate wins prepare()'s dominant phase
        # by >= 5x (the PR 2 record-path baseline was 6.7 s for the whole
        # prepare(); the array path must stay well under 1.5 s).
        assert cluster_speedup >= 5.0, f"clustering speedup regressed to {cluster_speedup:.2f}x"
        assert mins["array"]["prepare_total"] < 1.5, (
            f"prepare() at n=10^4 took {mins['array']['prepare_total']:.2f}s"
        )


# --------------------------------------------------------------------------- #
# Experiment P2 — inline vs process execution backend
# --------------------------------------------------------------------------- #

#: Sizes for the exec-backend comparison (the acceptance regime is 10^4–10^5).
EXEC_NS = (scaled(10_000, 300), scaled(100_000, 600))
EXEC_SEED = 3
WORKER_COUNTS = (1, 2, 4)
EXEC_PHASES = PHASES + ("prepare_total", "dp_solve")


def _run_exec_pipeline(n: int, backend: str, workers=None, obs: str = "off"):
    """One full pipeline run; returns (per-phase seconds, solve result)."""
    base = gen.random_attachment_tree(n, seed=EXEC_SEED)
    weighted = gen.with_random_weights(base, seed=EXEC_SEED)
    sim = MPCSimulator(MPCConfig(n=n, exec_backend=backend, exec_workers=workers, obs=obs))
    t0 = time.perf_counter()
    prep = prepare(weighted, sim=sim)
    prep_total = time.perf_counter() - t0
    t0 = time.perf_counter()
    res = solve_on(prep, MaxWeightIndependentSet())
    dp_s = time.perf_counter() - t0
    timings = {p: prep.timings[p] for p in PHASES}
    timings["prepare_total"] = prep_total
    timings["dp_solve"] = dp_s
    return timings, res


def _parallel_fraction(n: int):
    """Fraction of an inline run spent in DP layer batches, both passes.

    This is the parallelizable share: the process backend distributes the
    layer batches and nothing else, so normalization, degree reduction,
    the clustering's treeops, round accounting and extraction run on the
    driver under *every* backend.  The share is read from the trace of an
    inline ``obs="trace"`` run as the summed ``dp.layer`` span durations.
    Amdahl's bound ``1 / (1 - f + f/W)`` on this fraction is the ceiling
    any worker count can reach, which is what makes a "driver-bound"
    verdict quantitative.
    """
    from repro.obs.context import install_shared

    # The harness-wide shared context wins over MPCConfig.obs; lift it so
    # this run records its own spans.
    shared = install_shared(None)
    try:
        timings, res = _run_exec_pipeline(n, "inline", obs="trace")
    finally:
        install_shared(shared)
    layer_s = sum(span["duration"] for span in res.trace() if span["name"] == "dp.layer")
    total = timings["prepare_total"] + timings["dp_solve"]
    return layer_s / total if total > 0 else 0.0, layer_s


def _measure_exec():
    from repro.mpc.exec.pool import ProcessBackend

    repeats = 1 if SMOKE else 3
    sizes = {}
    values_ok = True
    for n in EXEC_NS:
        runs = {"inline": []}
        inline_value = None
        for _ in range(repeats):
            timings, res = _run_exec_pipeline(n, "inline")
            runs["inline"].append(timings)
            inline_value = res.value
        for w in WORKER_COUNTS:
            runs[f"process-{w}"] = []
            for _ in range(repeats):
                timings, res = _run_exec_pipeline(n, "process", workers=w)
                runs[f"process-{w}"].append(timings)
                values_ok = values_ok and (res.value == inline_value)
        mins = {
            cfg: {p: min(t[p] for t in trials) for p in EXEC_PHASES}
            for cfg, trials in runs.items()
        }
        frac, parallel_s = _parallel_fraction(n)
        sizes[n] = {"phases_s": mins, "parallel_fraction": frac, "parallel_seconds": parallel_s}
    # The pools are process-global; stop them so later benchmark modules
    # (and the harness exit) see a quiet machine.
    for backend in list(ProcessBackend._shared.values()):
        backend.close()
    return sizes, values_ok


def test_parallel_exec_backend(benchmark):
    """Inline vs process execution across worker counts (BENCH_parallel.json).

    Acceptance: >= 1.5x end-to-end speedup at n=10^5 with >= 4 workers *or*
    a per-phase breakdown documenting why the workload is driver-bound.  The
    emitted JSON always carries the breakdown, the parallelizable
    fraction, the Amdahl ceiling it implies, and the machine's core count,
    so the verdict is auditable either way.
    """
    sizes, values_ok = run_once(benchmark, _measure_exec)
    cpus = os.cpu_count() or 1

    report = {}
    for n, data in sizes.items():
        mins = data["phases_s"]
        inline_total = mins["inline"]["prepare_total"] + mins["inline"]["dp_solve"]
        rows = []
        speedups = {}
        for cfg in mins:
            total = mins[cfg]["prepare_total"] + mins[cfg]["dp_solve"]
            speedups[cfg] = inline_total / total if total > 0 else float("inf")
            rows.append(
                (cfg,)
                + tuple(f"{mins[cfg][p] * 1000:.1f}" for p in EXEC_PHASES)
                + (f"{speedups[cfg]:.2f}x",)
            )
        print_table(
            f"Exec backends — inline vs process pool (n={n}, {cpus} cores)",
            ["config"] + [f"{p} ms" for p in EXEC_PHASES] + ["speedup"],
            rows,
        )
        frac = data["parallel_fraction"]
        best_workers = max(WORKER_COUNTS)
        amdahl = 1.0 / ((1.0 - frac) + frac / min(best_workers, cpus))
        print(
            f"parallelizable fraction: {frac:.1%}; Amdahl ceiling with "
            f"{best_workers} workers on {cpus} core(s): {amdahl:.2f}x"
        )
        report[str(n)] = {
            "phases_ms": {
                cfg: {p: mins[cfg][p] * 1000 for p in EXEC_PHASES} for cfg in mins
            },
            "speedup_vs_inline": speedups,
            "parallel_fraction": frac,
            "parallel_seconds": data["parallel_seconds"],
            "amdahl_ceiling": amdahl,
        }

    n_big = max(sizes)
    best = max(
        v for k, v in report[str(n_big)]["speedup_vs_inline"].items() if k != "inline"
    )
    driver_bound = report[str(n_big)]["parallel_fraction"] < 0.75
    if cpus >= 4 and not SMOKE:
        assert best >= 1.5 or driver_bound, (
            f"expected >=1.5x with {max(WORKER_COUNTS)} workers or a "
            f"driver-bound breakdown; got {best:.2f}x at parallel fraction "
            f"{report[str(n_big)]['parallel_fraction']:.1%}"
        )
        note = (
            "acceptance met by speedup"
            if best >= 1.5
            else "driver-bound: see parallel_fraction / amdahl_ceiling per size"
        )
    else:
        note = (
            f"hardware-bound: this machine exposes {cpus} CPU core(s), fewer "
            f"than the {max(WORKER_COUNTS)} workers of the acceptance check, so "
            f"the worker pool time-shares cores with the driver; the per-phase "
            f"breakdown and the Amdahl ceiling above quantify what a machine "
            f"with more cores would gain. The equivalence contract (bit-"
            f"identical values, labels and RoundStats) is asserted separately "
            f"by the test-suite."
        )
    print(f"verdict: {note}")

    emit_json(
        "parallel",
        {
            "cpu_count": cpus,
            "worker_counts": list(WORKER_COUNTS),
            "seed": EXEC_SEED,
            "sizes": report,
            "values_bit_identical": values_ok,
            "note": note,
        },
    )
    assert values_ok, "process backend value diverged from inline"
