"""Chaos suite: the exec supervision ladder under deterministic faults.

Every test injects failures at exact ``(worker, call)`` coordinates via
:class:`~repro.mpc.exec.faults.FaultPlan` and asserts the acceptance
contract of the self-healing exec layer:

* the solve *completes* through the ladder (retry within the pool →
  rebuild the pool → warn-once inline fallback), with values, labels and
  every `RoundStats` channel bit-identical to the inline backend;
* hangs are detected by heartbeat silence in seconds (not the 300s call
  deadline), while slow-but-alive workers are never false-killed;
* the :class:`~repro.mpc.exec.faults.ExecHealth` report records exactly
  which rungs were taken.

Fault coordinates are deterministic because the driver counts the
supervised calls it sends per slot: on a fresh pool, call 0 of every slot
is ``tree_state`` (the first DP session ships the clustering), call 1
``dp_open`` and call 2 the first ``dp_solve`` layer batch.
"""

from __future__ import annotations

import json
import time
import warnings

import pytest

from repro.core.pipeline import prepare, solve, solve_on
from repro.dynamic import node_update
from repro.mpc.config import MPCConfig
from repro.mpc.exec import FaultPlan, InjectedFault
from repro.mpc.exec import pool as pool_mod
from repro.mpc.exec.faults import FaultSpec
from repro.mpc.exec.pool import ProcessBackend
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.trees import generators as gen

#: Every stat channel the bit-identical contract covers.
_STAT_FIELDS = (
    "rounds",
    "charged_rounds",
    "rounds_by_label",
    "charged_by_label",
    "charged_words_by_label",
    "charged_words",
)


def _tree(n=150, seed=5):
    return gen.with_random_weights(gen.random_attachment_tree(n, seed=seed), seed=seed)


def _outcome(res):
    return (res.value, res.root_label, dict(res.node_labels), dict(res.edge_labels))


def _stats(sim):
    return tuple(
        dict(v) if isinstance(v := getattr(sim.stats, f), dict) else v for f in _STAT_FIELDS
    )


def _solve_pipeline(tree, **cfg_kw):
    """Full pipeline run; returns (outcome, stats, sim)."""
    cfg = MPCConfig(n=max(4, len(tree.nodes())), **cfg_kw)
    sim = MPCSimulator(cfg)
    res = solve_on(prepare(tree, sim=sim), MaxWeightIndependentSet())
    return _outcome(res), _stats(sim), sim, res


def _solve_dp_on(tree, backend_obj):
    """Prepare inline, then run the DP phase on ``backend_obj`` (``None``: inline).

    This drives a hand-built pool (its own fault plan or retry policy)
    through one solve; its per-slot call ordinals are those of any solve on
    a fresh pool (tree_state=0, dp_open=1, first dp_solve=2).
    """
    sim = MPCSimulator(MPCConfig(n=max(4, len(tree.nodes()))))
    prepared = prepare(tree, sim=sim)
    if backend_obj is not None:
        sim._executor = backend_obj
    res = solve_on(prepared, MaxWeightIndependentSet())
    return _outcome(res), _stats(sim)


# --------------------------------------------------------------------------- #
# FaultPlan unit behaviour
# --------------------------------------------------------------------------- #


def test_faultplan_parse_roundtrip():
    spec = "kill@w0:2;hang@*:1:dp_open:duration=3;poison@*:0:tree_state;raise@update-layer:1"
    plan = FaultPlan.parse(spec)
    assert plan is not None and plan.remaining() == 4
    assert plan.spec == spec
    # to_spec serializes the remaining entries; re-parsing is stable.
    replay = FaultPlan.parse(plan.to_spec())
    assert replay is not None
    assert replay.to_spec() == plan.to_spec()
    # poison is an alias of raise.
    assert "raise@*:0:tree_state" in plan.to_spec()


def test_faultplan_empty_and_invalid_specs():
    assert FaultPlan.parse("") is None
    assert FaultPlan.parse("  ;  ") is None
    for bad in (
        "explode@w0:1",  # unknown kind
        "kill@w0",  # missing call ordinal
        "kill@w0:x",  # non-integer call
        "kill@w0:-1",  # negative call
        "kill@site-name:0",  # site faults can only raise
        "raise@update-layer:0:dp_solve",  # site faults take no command token
        "kill@w0:2:dp_solve:frequency=2",  # unknown option
        "kill",  # no '@where:call' at all
    ):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)


def test_faultplan_consume_once_semantics():
    plan = FaultPlan.parse("kill@*:2:dp_solve")
    assert plan.take(0, 1, "dp_solve") is None  # wrong call
    assert plan.take(1, 2, "dp_labels") is None  # wrong cmd
    directive = plan.take(1, 2, "dp_solve")
    assert directive is not None and directive["kind"] == "kill"
    assert plan.take(0, 2, "dp_solve") is None  # consumed: fires exactly once
    assert plan.remaining() == 0


def test_faultplan_site_faults_fire_once_at_their_ordinal():
    plan = FaultPlan.parse("poison@update-layer:1")
    plan.check_site("update-layer")  # ordinal 0: no match
    plan.check_site("other-site")  # different site: independent counter
    with pytest.raises(InjectedFault):
        plan.check_site("update-layer")  # ordinal 1: fires
    plan.check_site("update-layer")  # consumed
    assert plan.remaining() == 0


def test_faultplan_seeded_is_deterministic():
    a, b = FaultPlan.seeded(1234, count=3), FaultPlan.seeded(1234, count=3)
    assert a.spec == b.spec and a.remaining() == 3
    # The spec round-trips, so a failing seeded run replays from one string.
    replay = FaultPlan.parse(a.spec)
    assert replay is not None and replay.spec == a.spec


def test_faultspec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="kill", call=-1)
    with pytest.raises(ValueError):
        FaultSpec(kind="hang", call=0, site="update-layer")
    assert FaultSpec(kind="poison", call=0).kind == "raise"


def test_config_validates_fault_spec(monkeypatch):
    with pytest.raises(ValueError):
        MPCConfig(n=64, exec_faults="explode@w0:1")
    monkeypatch.setenv("REPRO_EXEC_FAULTS", "kill@w0:1")
    assert MPCConfig(n=64).exec_faults == "kill@w0:1"
    monkeypatch.setenv("REPRO_EXEC_FAULTS", "not-a-spec")
    with pytest.raises(ValueError):
        MPCConfig(n=64)


# --------------------------------------------------------------------------- #
# Pool cache keying / per-pool deadlines
# --------------------------------------------------------------------------- #


def test_pool_cache_keyed_by_every_exec_knob():
    base = ProcessBackend.shared(2)
    assert ProcessBackend.shared(2) is base
    assert ProcessBackend.shared(3) is not base
    assert ProcessBackend.shared(2, call_timeout=123.0) is not base
    assert ProcessBackend.shared(2, retries=0) is not base
    assert ProcessBackend.shared(2, heartbeat=0.1) is not base
    faulted = ProcessBackend.shared(2, faults="kill@w0:1")
    assert faulted is not base
    assert faulted.fault_plan is not None and faulted.fault_plan.remaining() == 1
    # Cache lookups never build worker processes by themselves (checked on a
    # freshly-keyed pool: `base` may be prebuilt by earlier tests in the run).
    fresh = ProcessBackend.shared(2, backoff=0.123)
    assert ProcessBackend.shared(2, backoff=0.123) is fresh
    assert not fresh._workers


def test_call_timeout_is_read_per_pool_not_at_import(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "17.5")
    assert ProcessBackend(2).call_timeout == 17.5
    monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "42")
    assert ProcessBackend(2).call_timeout == 42.0  # no import-time freeze
    assert ProcessBackend(2, call_timeout=9.0).call_timeout == 9.0  # explicit wins
    cfg = MPCConfig(n=64, exec_call_timeout=11.0)
    assert cfg.exec_call_timeout == 11.0


# --------------------------------------------------------------------------- #
# Fault classes end-to-end: the solve completes, bit-identical to inline
# --------------------------------------------------------------------------- #


@pytest.mark.chaos
def test_worker_sigkill_mid_superstep_heals_bit_identical():
    """Fault class 1: SIGKILL mid-superstep → rebuild rung, identical run."""
    ref_out, ref_stats, _sim, _res = _solve_pipeline(_tree(), exec_backend="inline")
    out, stats, sim, res = _solve_pipeline(
        _tree(),
        exec_backend="process",
        exec_workers=2,
        exec_backoff=0.01,
        exec_faults="kill@*:2:dp_solve",
    )
    assert out == ref_out
    for field, a, b in zip(_STAT_FIELDS, ref_stats, stats):
        assert a == b, f"stats field {field} diverged under injected kill"
    health = sim.executor.health
    assert health.worker_deaths >= 1
    assert health.rebuilds >= 1
    assert health.inline_fallbacks == 0
    # The report also rides on the pipeline result.
    assert res.exec_health is not None
    assert res.exec_health["worker_deaths"] == health.worker_deaths
    sim.executor.close()


@pytest.mark.chaos
def test_hung_worker_detected_by_heartbeat_not_deadline():
    """Fault class 2: a silent worker is declared hung after ~12 heartbeat
    intervals and healed — nowhere near the 300s call deadline or the 30s
    injected sleep."""
    ref_out, ref_stats, _sim, _res = _solve_pipeline(_tree(seed=6), exec_backend="inline")
    t0 = time.monotonic()
    out, stats, sim, _res = _solve_pipeline(
        _tree(seed=6),
        exec_backend="process",
        exec_workers=2,
        exec_backoff=0.01,
        exec_heartbeat=0.1,
        exec_call_timeout=300.0,
        exec_faults="hang@w0:2:dp_solve:duration=30",
    )
    elapsed = time.monotonic() - t0
    assert out == ref_out and stats == ref_stats
    assert elapsed < 20.0, f"hang detection took {elapsed:.1f}s — heartbeats not working"
    health = sim.executor.health
    assert health.worker_hangs >= 1
    assert health.rebuilds >= 1
    assert health.inline_fallbacks == 0
    sim.executor.close()


@pytest.mark.chaos
def test_poisoned_dp_batch_retries_within_pool():
    """Fault class 3: a poisoned DP batch raises worker-side; the retry
    stays on rung 1 — same pool, no rebuild — and matches inline exactly."""
    ref = _solve_dp_on(_tree(seed=7), None)
    backend = ProcessBackend(2, backoff=0.01, fault_plan=FaultPlan.parse("poison@w0:2:dp_solve"))
    try:
        got = _solve_dp_on(_tree(seed=7), backend)
        assert got == ref
        assert backend.health.worker_errors == 1
        assert backend.health.retries == 1
        assert backend.health.rebuilds == 0  # rung 1 sufficed: pool intact
        assert backend.health.inline_fallbacks == 0
        assert backend.fault_plan is not None and backend.fault_plan.remaining() == 0
    finally:
        backend.close()


@pytest.mark.chaos
def test_failed_session_open_retries_within_pool():
    """A worker raising while the DP session opens is retried like any
    worker error: the open re-runs on the same pool and the solve matches
    inline exactly."""
    ref = _solve_dp_on(_tree(seed=8), None)
    backend = ProcessBackend(2, backoff=0.01, fault_plan=FaultPlan.parse("raise@*:1:dp_open"))
    try:
        got = _solve_dp_on(_tree(seed=8), backend)
        assert got == ref
        assert backend.health.worker_errors == 1
        assert backend.health.retries == 1
        assert backend.health.rebuilds == 0
        assert backend.health.inline_fallbacks == 0
    finally:
        backend.close()


@pytest.mark.chaos
def test_dropped_reply_surfaces_as_hang_and_heals():
    """A computed-but-lost reply is indistinguishable from a hang; the
    re-dispatch after the rebuild re-runs the batch from the driver's
    summaries — idempotent by construction, so still bit-identical."""
    ref_out, ref_stats, _sim, _res = _solve_pipeline(_tree(seed=9), exec_backend="inline")
    out, stats, sim, _res = _solve_pipeline(
        _tree(seed=9),
        exec_backend="process",
        exec_workers=2,
        exec_backoff=0.01,
        exec_heartbeat=0.1,
        exec_faults="drop@w0:2:dp_solve",
    )
    assert out == ref_out and stats == ref_stats
    health = sim.executor.health
    assert health.worker_hangs >= 1
    assert health.rebuilds >= 1
    sim.executor.close()


@pytest.mark.chaos
def test_slow_worker_is_not_false_killed():
    """The anti-flakiness half of liveness: a worker sleeping well past the
    hang window but heartbeating through it must complete normally."""
    ref_out, ref_stats, _sim, _res = _solve_pipeline(_tree(seed=10), exec_backend="inline")
    out, stats, sim, _res = _solve_pipeline(
        _tree(seed=10),
        exec_backend="process",
        exec_workers=2,
        exec_heartbeat=0.1,  # hang window = 1.2s, well under the delay
        exec_faults="delay@w0:2:dp_solve:duration=2.5",
    )
    assert out == ref_out and stats == ref_stats
    health = sim.executor.health
    assert sim.executor.fault_plan.remaining() == 0  # the delay did fire
    assert health.worker_hangs == 0
    assert health.worker_deaths == 0
    assert health.retries == 0
    assert health.events == []
    sim.executor.close()


@pytest.mark.chaos
def test_ladder_exhaustion_degrades_inline_with_one_warning(monkeypatch):
    """retries=0 exhausts the ladder on the first death: the session warns
    once, degrades inline, and still produces the identical result."""
    monkeypatch.setattr(pool_mod, "_DEGRADE_WARNED", False)
    ref_out, ref_stats, _sim, _res = _solve_pipeline(_tree(seed=11), exec_backend="inline")
    with pytest.warns(RuntimeWarning, match="supervision exhausted"):
        out, stats, sim, res = _solve_pipeline(
            _tree(seed=11),
            exec_backend="process",
            exec_workers=2,
            exec_retries=0,
            exec_faults="kill@*:2:dp_solve",
        )
    assert out == ref_out and stats == ref_stats
    health = sim.executor.health
    assert health.worker_deaths == 1
    assert health.retries == 0
    assert health.inline_fallbacks >= 1
    assert res.exec_health is not None
    assert res.exec_health["inline_fallbacks"] == health.inline_fallbacks
    # Warn-once: a second degradation in the same process stays silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pool_mod._warn_inline_fallback("again", RuntimeError("x"))
    sim.executor.close()


@pytest.mark.chaos
def test_seeded_fault_plan_replays_identically():
    """Same seed, same plan, same healed result — the CI chaos matrix
    relies on seeded runs being reproducible from the seed alone."""
    runs = []
    for _ in range(2):
        plan = FaultPlan.seeded(42, count=2, kinds=("kill", "raise"), max_call=4)
        backend = ProcessBackend(2, backoff=0.01, fault_plan=plan)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                runs.append(_solve_dp_on(_tree(seed=12), backend) + (plan.remaining(),))
        finally:
            backend.close()
    assert runs[0] == runs[1]
    assert runs[0][:2] == _solve_dp_on(_tree(seed=12), None)


# --------------------------------------------------------------------------- #
# ExecHealth surfacing
# --------------------------------------------------------------------------- #


@pytest.mark.chaos
def test_exec_health_report_counts_and_json_artifact(tmp_path, monkeypatch):
    """The health report is exact (not >=) for a single planned fault, is
    surfaced via PreparedTree.exec_health(), and is dumped as JSON on close
    when REPRO_EXEC_HEALTH_DIR is set."""
    monkeypatch.setenv("REPRO_EXEC_HEALTH_DIR", str(tmp_path))
    ref = _solve_dp_on(_tree(n=128, seed=3), None)
    backend = ProcessBackend(2, backoff=0.01, fault_plan=FaultPlan.parse("kill@w0:2:dp_solve"))
    try:
        assert _solve_dp_on(_tree(n=128, seed=3), backend) == ref
        assert backend.health.worker_deaths == 1
        assert backend.health.retries == 1
        assert backend.health.rebuilds == 1
        assert backend.health.inline_fallbacks == 0
        kinds = [e["event"] for e in backend.health.events]
        assert kinds == ["failure", "retry", "rebuild"]
        expected = backend.health.as_dict()
    finally:
        backend.close()
    reports = list(tmp_path.glob("exec-health-*.json"))
    assert len(reports) == 1
    assert json.loads(reports[0].read_text()) == expected


def test_exec_health_reports_never_collide(tmp_path, monkeypatch):
    """Health dumps sharing one directory never overwrite each other.

    Regression test: several pipelines in one process used to be the only
    collision-safe case (a per-process sequence number); a *restarted*
    server process whose pid the OS reused restarts the sequence at 0 and
    silently clobbered the previous run's report.  The shared dump helper
    (``repro.obs.dump.dump_file``) always starts the sequence at 0 and
    advances past any existing file via exclusive create, so every dump —
    same process or a reincarnated pid — lands on a fresh name.
    """
    monkeypatch.setenv("REPRO_EXEC_HEALTH_DIR", str(tmp_path))

    def dump(marker):
        backend = ProcessBackend(1)
        backend._ever_built = True  # dump without spawning real workers
        backend.health.events.append({"event": "marker", "marker": marker})
        backend._write_health_report()

    dump("first")
    dump("second")  # second pipeline, same process
    # A restarted server whose pid the OS reused behaves identically: the
    # sequence restarts at 0 and exclusive create walks it past survivors.
    dump("third")

    reports = list(tmp_path.glob("exec-health-*.json"))
    assert len(reports) == 3
    markers = {json.loads(p.read_text())["events"][-1]["marker"] for p in reports}
    assert markers == {"first", "second", "third"}


def test_prepared_tree_exec_health_is_none_inline():
    tree = _tree(n=60, seed=13)
    prepared = prepare(tree, sim=MPCSimulator(MPCConfig(n=60, exec_backend="inline")))
    assert prepared.exec_health() is None
    res = solve_on(prepared, MaxWeightIndependentSet())
    assert res.exec_health is None


# --------------------------------------------------------------------------- #
# Incremental solver: pending-dirty healing under injected faults
# --------------------------------------------------------------------------- #


@pytest.mark.chaos
@pytest.mark.parametrize("exec_backend", ["inline", "process"])
def test_incremental_poisoned_update_batch_heals(exec_backend):
    """An update pass poisoned mid-pass (after payloads were written, after
    some chain summaries were re-solved) must refuse to serve stale state
    and heal on the next batch — differentially checked against a
    from-scratch solve, under both exec backends."""
    tree = _tree(n=120, seed=21)
    cfg = MPCConfig(n=120, exec_backend=exec_backend, exec_workers=2, exec_backoff=0.01)
    prepared = prepare(tree, sim=MPCSimulator(cfg))
    plan = FaultPlan.parse("poison@update-layer:1")
    inc = prepared.incremental(MaxWeightIndependentSet(), fault_plan=plan)
    nodes = tree.nodes()

    # nodes[5]'s dirty chain spans two layers, so the fault fires at the
    # *second* bottom-up layer of this pass: the payload write and the
    # first layer's summaries already landed.
    with pytest.raises(InjectedFault):
        inc.apply_updates([node_update(nodes[5], 9999.0)])
    with pytest.raises(RuntimeError, match="stale"):
        inc.as_pipeline_result()

    # The next batch folds the pending chains back in (pruning disabled
    # while healing) and restores consistency.
    inc.apply_updates([node_update(nodes[3], 1.25)])
    assert plan.remaining() == 0
    ref = solve(tree, MaxWeightIndependentSet())
    got = inc.as_pipeline_result()
    assert (got.value, got.node_labels, got.edge_labels) == (
        ref.value,
        ref.node_labels,
        ref.edge_labels,
    )

    # Subsequent updates keep matching from-scratch solves.
    inc.apply_updates([node_update(nodes[8], 0.125)])
    ref2 = solve(tree, MaxWeightIndependentSet())
    assert inc.as_pipeline_result().value == ref2.value
    if exec_backend == "process":
        prepared.sim.executor.close()


@pytest.mark.chaos
def test_incremental_repeated_poison_heals_every_round():
    """Three consecutive poisoned batches, each at a different layer
    ordinal: every round refuses stale state, every heal converges."""
    tree = _tree(n=100, seed=22)
    prepared = prepare(tree, sim=MPCSimulator(MPCConfig(n=100)))
    plan = FaultPlan.parse(
        "poison@update-layer:0;poison@update-layer:3;poison@update-layer:7"
    )
    inc = prepared.incremental(MaxWeightIndependentSet(), fault_plan=plan)
    nodes = tree.nodes()
    for round_no, node in enumerate(nodes[:6]):
        try:
            inc.apply_updates([node_update(node, float(round_no) + 0.5)])
        except InjectedFault:
            with pytest.raises(RuntimeError, match="stale"):
                inc.solve_result()
            continue  # the next round's batch heals the pending chains
        ref = solve(tree, MaxWeightIndependentSet())
        assert inc.as_pipeline_result().value == ref.value
    # Drain any leftover pending state and verify final convergence.
    inc.refresh()
    ref = solve(tree, MaxWeightIndependentSet())
    got = inc.as_pipeline_result()
    assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)
