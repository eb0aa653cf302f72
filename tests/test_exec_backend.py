"""Process execution backend: equivalence and failure modes.

The tentpole contract — inline and process backends are bit-identical in
values, labels and :class:`~repro.mpc.simulator.RoundStats` — is exercised
end-to-end here (the full substrate-equivalence suite additionally runs
under ``REPRO_EXEC_BACKEND=process`` in CI).  On top of that, this module
pins down the failure model:

* a worker killed mid-session is *healed* by the supervision ladder (the
  pool is rebuilt, the session re-opened and the idempotent layer batch
  re-dispatched) with the kill visible only in the pool's
  :class:`~repro.mpc.exec.ExecHealth` report; with retries disabled it
  degrades to the warn-once inline fallback instead of hanging (the
  deterministic fault-injection matrix lives in :mod:`tests.test_exec_faults`);
* a problem that cannot be pickled degrades to inline layer batches with a
  one-time :class:`RuntimeWarning`, with identical results;
* the pool starts no helper process besides its workers (no
  multiprocessing resource tracker).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
import warnings
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.pipeline import prepare, solve_on
from repro.dynamic import node_update
from repro.mpc.config import MPCConfig
from repro.mpc.exec import ExecBackendError
from repro.mpc.exec.pool import ProcessBackend, ProcessDPSession
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.trees import generators as gen

#: Every stat channel the equivalence contract covers.
_STAT_FIELDS = (
    "rounds",
    "charged_rounds",
    "rounds_by_label",
    "charged_by_label",
    "charged_words_by_label",
    "charged_words",
)


def _solve_with(tree, backend: str, workers: int = 3):
    """(result fields, stats fields) of one full pipeline run."""
    cfg = MPCConfig(n=max(4, len(tree.nodes())), exec_backend=backend, exec_workers=workers)
    sim = MPCSimulator(cfg)
    res = solve_on(prepare(tree, sim=sim), MaxWeightIndependentSet())
    outcome = (res.value, res.root_label, dict(res.node_labels), dict(res.edge_labels))
    stats = tuple(
        dict(v) if isinstance(v := getattr(sim.stats, f), dict) else v for f in _STAT_FIELDS
    )
    return outcome, stats


@pytest.mark.parametrize(
    "make_tree",
    [
        lambda: gen.with_random_weights(gen.random_attachment_tree(300, seed=5), seed=5),
        lambda: gen.with_random_weights(gen.caterpillar_tree(40, 3), seed=6),
        lambda: gen.with_random_weights(gen.balanced_kary_tree(3, 5), seed=7),
    ],
    ids=["random", "caterpillar", "3-ary"],
)
def test_process_backend_bit_identical_pipeline(make_tree):
    """Full pipeline (treeops + clustering + DP): same outputs, same stats."""
    inline_out, inline_stats = _solve_with(make_tree(), "inline")
    process_out, process_stats = _solve_with(make_tree(), "process")
    assert process_out == inline_out
    for field, a, b in zip(_STAT_FIELDS, inline_stats, process_stats):
        assert a == b, f"stats field {field} diverged"


def test_process_backend_worker_count_invariance():
    """The row partition cannot change a bit: 1..5 workers, same everything."""
    tree = gen.with_random_weights(gen.random_attachment_tree(200, seed=9), seed=9)
    reference = _solve_with(tree, "inline")
    for workers in (1, 2, 5):
        assert _solve_with(tree, "process", workers=workers) == reference


def test_incremental_updates_after_process_solve():
    """Point updates on a process-config deployment match an inline one.

    The incremental solver always runs inline (its driver-side memos are
    authoritative), but it must compose with a deployment whose full solves
    went through the worker pool.
    """
    results = {}
    for backend in ("inline", "process"):
        tree = gen.with_random_weights(gen.random_attachment_tree(150, seed=4), seed=4)
        cfg = MPCConfig(n=len(tree.nodes()), exec_backend=backend, exec_workers=2)
        prepared = prepare(tree, sim=MPCSimulator(cfg))
        solve_on(prepared, MaxWeightIndependentSet())  # warm a (possibly pooled) solve
        inc = prepared.incremental(MaxWeightIndependentSet())
        trace = []
        for step, node in enumerate(tree.nodes()[:10]):
            inc.apply_updates([node_update(node, float(step) + 0.5)])
            res = inc.solve_result()
            trace.append((res.value, dict(res.node_labels)))
        inc.refresh()
        final = inc.solve_result()
        trace.append((final.value, dict(final.node_labels)))
        results[backend] = trace
    assert results["process"] == results["inline"]


def _pooled(tree):
    """``tree`` prepared on a 2-worker process deployment."""
    cfg = MPCConfig(n=len(tree.nodes()), exec_backend="process", exec_workers=2)
    return prepare(tree, sim=MPCSimulator(cfg))


def _outcome(res):
    return (res.value, res.root_label, dict(res.node_labels), dict(res.edge_labels))


def test_pooled_solve_sees_payloads_edited_outside_the_incremental_solver():
    """Payloads edited in place and announced with
    ``invalidate_payload_plans()`` reach the workers too: their cached copy
    of the clustering is keyed by its payload epoch."""
    make = lambda: gen.with_random_weights(gen.random_attachment_tree(400, seed=3), seed=3)
    pooled = _pooled(make())
    solve_on(pooled, MaxWeightIndependentSet())  # the workers cache the clustering
    edited = make()
    for v in sorted(edited.nodes())[:50]:
        edited.node_data[v] = 1000.0
        pooled.tree.node_data[v] = 1000.0
    pooled.clustering.invalidate_payload_plans()
    got = solve_on(pooled, MaxWeightIndependentSet())
    assert _outcome(got) == _outcome(solve_on(prepare(edited), MaxWeightIndependentSet()))


def test_pooled_solve_after_incremental_updates_matches_inline():
    """Point updates written by an incremental solver reach a later pooled
    full solve on the same deployment."""
    make = lambda: gen.with_random_weights(gen.random_attachment_tree(300, seed=8), seed=8)
    tree = make()
    pooled = _pooled(tree)
    solve_on(pooled, MaxWeightIndependentSet())  # the workers cache the clustering
    inc = pooled.incremental(MaxWeightIndependentSet())
    rng = np.random.default_rng(8)
    for _ in range(5):
        picked = rng.choice(sorted(tree.nodes()), size=4, replace=False).tolist()
        inc.apply_updates([node_update(v, float(rng.uniform(0, 50))) for v in picked])
    inline = make()
    inline.node_data = dict(tree.node_data)
    ref = solve_on(prepare(inline), MaxWeightIndependentSet())
    got = solve_on(pooled, MaxWeightIndependentSet())
    assert _outcome(got) == _outcome(ref)
    assert got.value == inc.value


# --------------------------------------------------------------------------- #
# Failure modes
# --------------------------------------------------------------------------- #


def _solve_dp_with(tree, backend=None, after_open=None):
    """(result fields, stats fields) of a solve whose DP phase runs on ``backend``.

    The tree is prepared inline; ``backend`` (``None``: inline) is swapped in
    for the solve.  ``after_open`` runs once the DP session is open on every
    worker, before its first layer batch is dispatched.
    """
    sim = MPCSimulator(MPCConfig(n=max(4, len(tree.nodes()))))
    prepared = prepare(tree, sim=sim)
    if backend is not None:
        sim._executor = backend
        if after_open is not None:

            def opened(*args, **kwargs):
                del backend.dp_session  # one-shot: later solves open as usual
                session = backend.dp_session(*args, **kwargs)
                after_open()
                return session

            backend.dp_session = opened
    res = solve_on(prepared, MaxWeightIndependentSet())
    outcome = (res.value, res.root_label, dict(res.node_labels), dict(res.edge_labels))
    stats = tuple(
        dict(v) if isinstance(v := getattr(sim.stats, f), dict) else v for f in _STAT_FIELDS
    )
    return outcome, stats


def _tree(seed: int):
    return gen.with_random_weights(gen.random_attachment_tree(200, seed=seed), seed=seed)


def test_killed_worker_heals_via_rebuild():
    """SIGKILL mid-session → the supervision ladder respawns the pool, re-opens
    the session and the retried layer batch succeeds; the kill is visible
    only in the health report."""
    reference = _solve_dp_with(_tree(3))
    backend = ProcessBackend(2)
    try:
        pids = backend.worker_pids()
        assert len(pids) == 2 and all(p > 0 for p in pids)

        t0 = time.monotonic()
        # Liveness polling detects the death, rebuilds the pool, re-ships the
        # tree state, re-opens the DP session and re-dispatches — long before
        # the call deadline and without surfacing an error.
        got = _solve_dp_with(
            _tree(3), backend, after_open=lambda: os.kill(pids[0], signal.SIGKILL)
        )
        assert time.monotonic() - t0 < 30.0
        assert got == reference
        assert backend.health.worker_deaths >= 1
        assert backend.health.rebuilds >= 1
        assert backend.health.inline_fallbacks == 0
        new_pids = backend.worker_pids()
        assert new_pids != pids
        assert all(_alive(p) for p in new_pids)

        # The rebuilt pool keeps working for fresh sessions, bit-identically.
        assert _solve_dp_with(_tree(4), backend) == _solve_dp_with(_tree(4))
    finally:
        backend.close()


def test_killed_worker_without_retries_raises_cleanly():
    """retries=0: the first death exhausts the ladder, so the session
    degrades inline (warn-once) instead of failing the solve or hanging."""
    reference = _solve_dp_with(_tree(5))
    backend = ProcessBackend(2, retries=0)
    try:
        pids = backend.worker_pids()
        t0 = time.monotonic()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = _solve_dp_with(
                _tree(5), backend, after_open=lambda: os.kill(pids[0], signal.SIGKILL)
            )
        assert time.monotonic() - t0 < 30.0
        assert got == reference
        assert backend.health.worker_deaths == 1
        assert backend.health.inline_fallbacks == 1
    finally:
        backend.close()


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def test_worker_exception_surfaces_traceback():
    """A worker-side Python error arrives as ExecBackendError with context."""
    backend = ProcessBackend(2)
    try:
        backend.worker_pids()
        with pytest.raises(ExecBackendError, match="no-such-session"):
            backend._call_all("dp_solve", ("no-such-session", 1, [], {}, None))
    finally:
        backend.close()


def test_prepare_forks_no_worker_until_the_first_dp_session():
    """The clustering's tree subroutines run on the driver, so prepare()
    on a process config builds no pool; the first pooled solve forks it."""
    tree = _tree(6)
    # A call timeout no other test uses keys a pool of this test's own.
    cfg = MPCConfig(n=200, exec_backend="process", exec_workers=2, exec_call_timeout=77.0)
    prepared = prepare(tree, sim=MPCSimulator(cfg))
    backend = prepared.sim.executor
    try:
        assert backend.name == "process"
        assert not backend._workers
        res = solve_on(prepared, MaxWeightIndependentSet())
        assert len(backend._workers) == 2
        assert res.value == solve_on(prepare(tree), MaxWeightIndependentSet()).value
    finally:
        backend.close()


def test_process_backend_starts_no_resource_tracker():
    """A pooled prepare + solve starts no multiprocessing resource tracker.

    The tracker is a helper process that outlives the pool until every
    holder of its pipe exits; the pool's pipes and forked workers never
    need it.  Checked in a fresh interpreter, since any earlier test in
    this process may have started one.
    """
    script = (
        "from multiprocessing import resource_tracker\n"
        "from repro.core.pipeline import prepare, solve_on\n"
        "from repro.mpc.config import MPCConfig\n"
        "from repro.mpc.simulator import MPCSimulator\n"
        "from repro.problems.max_weight_independent_set import MaxWeightIndependentSet\n"
        "from repro.trees import generators as gen\n"
        "tree = gen.with_random_weights(gen.random_attachment_tree(300, seed=1), seed=1)\n"
        "cfg = MPCConfig(n=300, exec_backend='process', exec_workers=2, exec_faults='')\n"
        "prepared = prepare(tree, sim=MPCSimulator(cfg))\n"
        "solve_on(prepared, MaxWeightIndependentSet())\n"
        "assert prepared.sim.executor.name == 'process'\n"
        "print(resource_tracker._resource_tracker._pid)\n"
        "prepared.sim.executor.close()\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "None"


def test_unshippable_problem_runs_inline_with_warning():
    """A non-picklable problem degrades per-solve, with identical results."""

    class LocalMWIS(MaxWeightIndependentSet):  # local class: cannot pickle
        name = "local-mwis"

    tree = gen.with_random_weights(gen.random_attachment_tree(120, seed=10), seed=10)
    baseline = solve_on(prepare(tree), MaxWeightIndependentSet())

    cfg = MPCConfig(n=len(tree.nodes()), exec_backend="process", exec_workers=2)
    prepared = prepare(tree, sim=MPCSimulator(cfg))
    with pytest.warns(RuntimeWarning, match="cannot be shipped"):
        res = solve_on(prepared, LocalMWIS())
    assert res.value == baseline.value
    assert res.node_labels == baseline.node_labels


# --------------------------------------------------------------------------- #
# Configuration and partitioning
# --------------------------------------------------------------------------- #


def test_config_validates_exec_fields(monkeypatch):
    monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
    monkeypatch.delenv("REPRO_EXEC_WORKERS", raising=False)
    assert MPCConfig(n=64).exec_backend == "inline"
    assert MPCConfig(n=64, exec_backend="process").exec_workers is None
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_backend="threads")
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_workers=0)

    monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    cfg = MPCConfig(n=64)
    assert (cfg.exec_backend, cfg.exec_workers) == ("process", 3)
    # Explicit arguments beat the environment.
    assert MPCConfig(n=64, exec_backend="inline").exec_backend == "inline"

    # The supervision knobs validate the same way.
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_retries=-1)
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_backoff=-0.5)
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_heartbeat=0.0)
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_call_timeout=0.0)
    monkeypatch.setenv("REPRO_EXEC_RETRIES", "5")
    monkeypatch.setenv("REPRO_EXEC_BACKOFF", "0.5")
    monkeypatch.setenv("REPRO_EXEC_HEARTBEAT", "1.5")
    monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "60")
    cfg = MPCConfig(n=64)
    assert (cfg.exec_retries, cfg.exec_backoff) == (5, 0.5)
    assert (cfg.exec_heartbeat, cfg.exec_call_timeout) == (1.5, 60.0)
    assert MPCConfig(n=64, exec_retries=0).exec_retries == 0  # explicit wins


def test_config_scaled_carries_exec_fields():
    cfg = MPCConfig(
        n=64,
        exec_backend="process",
        exec_workers=2,
        exec_retries=1,
        exec_backoff=0.25,
        exec_heartbeat=0.5,
        exec_call_timeout=30.0,
        exec_faults="kill@w0:1",
    )
    scaled = cfg.scaled(4096)
    assert (scaled.exec_backend, scaled.exec_workers) == ("process", 2)
    assert (scaled.exec_retries, scaled.exec_backoff) == (1, 0.25)
    assert (scaled.exec_heartbeat, scaled.exec_call_timeout) == (0.5, 30.0)
    assert scaled.exec_faults == "kill@w0:1"


@lru_cache(maxsize=None)
def _compiled_plan(n: int):
    """The compiled layer plan of a weighted random tree on ``n`` nodes."""
    prepared = prepare(gen.with_random_weights(gen.random_attachment_tree(n, seed=n), seed=n))
    solve_on(prepared, MaxWeightIndependentSet())  # the first solve compiles
    return prepared.clustering._dp_plan


@pytest.mark.parametrize("n", [1, 30, 64, 300, 1000])
@pytest.mark.parametrize("slots", [1, 2, 3, 8])
def test_slot_batches_partition_rows_by_cluster_owner(slots, n):
    """A layer batch splits into one non-empty sub-batch per owning slot, in
    slot order; together they cover exactly the batch's rows, and every
    cluster goes to worker ``cid % slots``.  The split is driver-side
    bookkeeping, so no worker is started."""
    plan = _compiled_plan(n)
    session = ProcessDPSession(SimpleNamespace(num_slots=slots), None, None, None, None, b"")
    for layer in range(1, plan.hc.num_layers + 1):
        full = plan.batch(layer, None, {})
        # A full layer and a partial one (every other row), as a re-solve of
        # a few clusters dispatches.
        for batch in (full, full.select(full.rows[::2])):
            parts = session._slot_batches(batch)
            owners = [slot for slot, _ in parts]
            assert owners == sorted(set(owners))
            assert all(0 <= slot < slots for slot in owners)
            for slot, sub in parts:
                assert len(sub) > 0
                assert np.all(np.diff(sub.rows) > 0)
                assert np.all(batch.layer.cids[sub.rows] % slots == slot)
                assert sub.layer is batch.layer and sub.summaries is batch.summaries
            covered = np.sort(np.concatenate([sub.rows for _, sub in parts]))
            assert covered.tolist() == batch.rows.tolist()
            assert sorted(c for _, sub in parts for c in sub.cids) == sorted(batch.cids)
