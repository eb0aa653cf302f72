"""Observability subsystem (:mod:`repro.obs`) — units and stack integration.

Four layers of coverage:

* **Units** — histogram bucketing, Prometheus text exposition, registry
  label identity, pull-gauges, the dump helper's exclusive-create + GC cap.
* **Golden nested trace** — one fixed tree solved under both exec backends
  produces the same span structure (names + parenting), with the process
  backend's worker spans re-parented under their ``exec.*`` superstep span.
* **Round timeline** — the ``obs="trace"`` timeline sums bit-identically to
  the simulator's ``RoundStats`` (the acceptance criterion that makes the
  trace a faithful MPC round record).
* **Pay-for-use** — ``obs="off"`` resolves to the shared inert singleton
  and a solve loop under it is within noise of (no slower than) the fully
  instrumented run.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.core.pipeline import prepare, solve_on
from repro.mpc import MPCConfig, MPCSimulator
from repro.obs import clock
from repro.obs.context import OBS_OFF, ObsContext
from repro.obs.dump import dump_file, write_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import _NULL_HANDLE, Recorder, worker_span
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.trees import generators as gen


def _tree(n: int, seed: int = 7):
    return gen.with_random_weights(
        gen.random_attachment_tree(n, seed=seed), seed=seed
    )


def _prepared(n: int, **cfg):
    return prepare(_tree(n), sim=MPCSimulator(MPCConfig(n=n, **cfg)))


# --------------------------------------------------------------------------- #
# Metrics units
# --------------------------------------------------------------------------- #


def test_histogram_bucket_boundaries():
    reg = MetricsRegistry()
    h = reg.histogram("h_seconds", buckets=[1.0, 2.0, 5.0])
    for v in (0.5, 1.0, 3.0, 10.0):
        h.observe(v)
    # le= is inclusive (Prometheus semantics): 1.0 lands in the le="1" bucket.
    assert h.counts == [2, 0, 1, 1]
    assert h.cumulative() == [2, 2, 3, 4]
    assert h.count == 4
    assert h.sum == pytest.approx(14.5)


def test_histogram_rejects_bad_buckets():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("bad", buckets=[2.0, 1.0])
    with pytest.raises(ValueError):
        reg.histogram("dup", buckets=[1.0, 1.0])


def test_registry_label_identity():
    reg = MetricsRegistry()
    a = reg.counter("c_total", op="x")
    b = reg.counter("c_total", op="y")
    assert a is not b
    a.inc()
    a.inc(2.0)
    assert reg.counter("c_total", op="x") is a  # get-or-create returns same
    snap = reg.snapshot()
    assert snap["counters"][("c_total", (("op", "x"),))] == 3.0
    assert snap["counters"][("c_total", (("op", "y"),))] == 0.0


def test_gauge_fn_pull_and_failure_nan():
    reg = MetricsRegistry()
    depth = [4]
    reg.gauge_fn("queue_depth", lambda: float(depth[0]))
    reg.gauge_fn("broken", lambda: 1 / 0)
    snap = reg.snapshot()
    assert snap["gauges"][("queue_depth", ())] == 4.0
    assert math.isnan(snap["gauges"][("broken", ())])
    depth[0] = 9  # pull-style: the next snapshot sees the new value
    assert reg.snapshot()["gauges"][("queue_depth", ())] == 9.0


def test_prometheus_text_format():
    reg = MetricsRegistry()
    reg.counter("req_total", code="200").inc(3)
    reg.gauge("depth").set(2.5)
    h = reg.histogram("lat_seconds", buckets=[1.0, 2.0])
    h.observe(1.5)
    h.observe(1.5)
    h.observe(3.0)
    text = reg.to_prometheus()
    lines = text.splitlines()
    assert "# TYPE req_total counter" in lines
    assert 'req_total{code="200"} 3' in lines
    assert "# TYPE depth gauge" in lines
    assert "depth 2.5" in lines
    assert "# TYPE lat_seconds histogram" in lines
    # Cumulative buckets, the +Inf bucket, then _sum and _count.
    assert 'lat_seconds_bucket{le="1"} 0' in lines
    assert 'lat_seconds_bucket{le="2"} 2' in lines
    assert 'lat_seconds_bucket{le="+Inf"} 3' in lines
    assert "lat_seconds_sum 6" in lines
    assert "lat_seconds_count 3" in lines
    assert text.endswith("\n")


def test_to_json_shape_is_plain_data():
    reg = MetricsRegistry()
    reg.counter("c_total", op="x").inc()
    reg.histogram("h_seconds", buckets=[1.0]).observe(0.5)
    out = reg.to_json()
    assert json.loads(json.dumps(out)) == out
    (c,) = out["counters"]
    assert c == {"name": "c_total", "labels": {"op": "x"}, "value": 1.0}
    (h,) = out["histograms"]
    assert h["buckets"] == [1.0] and h["counts"] == [1, 0] and h["count"] == 1


# --------------------------------------------------------------------------- #
# Recorder / span units
# --------------------------------------------------------------------------- #


def test_recorder_nesting_and_attrs():
    rec = Recorder()
    with rec.trace("outer", a=1):
        with rec.trace("inner") as span:
            span.set(found=7)
    by_name = {s["name"]: s for s in rec.to_list()}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["parent_id"] is None
    assert by_name["inner"]["attrs"] == {"found": 7}
    assert by_name["outer"]["attrs"] == {"a": 1}


def test_recorder_ingest_rebases_and_reparents():
    rec = Recorder()
    with rec.trace("exec.dp_solve"):
        rec.ingest([worker_span("worker.dp_solve", 0.0, 0.25, slot=3)], base=100.0)
    by_name = {s["name"]: s for s in rec.to_list()}
    w = by_name["worker.dp_solve"]
    assert w["parent_id"] == by_name["exec.dp_solve"]["span_id"]
    assert w["start"] == pytest.approx(100.0)
    assert w["duration"] == pytest.approx(0.25)
    assert w["attrs"]["slot"] == 3


def test_recorder_error_attr_on_exception():
    rec = Recorder()
    with pytest.raises(RuntimeError):
        with rec.trace("boom"):
            raise RuntimeError("x")
    (span,) = rec.to_list()
    assert span["attrs"]["error"] == "RuntimeError"


# --------------------------------------------------------------------------- #
# Dump helper
# --------------------------------------------------------------------------- #


def test_dump_file_exclusive_and_gc_cap(tmp_path):
    def dump(keep):
        return dump_file(
            str(tmp_path),
            "obs-metrics-x",
            ".json",
            "obs-metrics-",
            lambda p: write_json(p, {"i": 1}),
            keep=keep,
        )

    # Under the cap, exclusive-create walks the sequence: no live file is
    # ever clobbered.
    paths = [dump(keep=10) for _ in range(6)]
    assert all(paths)
    assert len(set(paths)) == 6
    # Over the cap, the GC prunes the family's oldest down to `keep`
    # (sequence numbers of pruned files may then be reused — by design).
    for _ in range(4):
        dump(keep=3)
    remaining = sorted(f.name for f in tmp_path.iterdir())
    assert len(remaining) == 3


# --------------------------------------------------------------------------- #
# Pay-for-use: obs="off"
# --------------------------------------------------------------------------- #


def test_off_mode_is_shared_inert_singleton(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    sim = MPCSimulator(MPCConfig(n=256))
    assert sim.obs is OBS_OFF
    assert not sim.obs.enabled and not sim.obs.tracing
    # Every hook reduces to an attribute check + a shared no-op handle.
    assert sim.obs.trace("anything") is _NULL_HANDLE
    assert sim.obs.trace("a") is sim.obs.trace("b")
    prepared = prepare(_tree(200), sim=sim)
    res = solve_on(prepared, MaxWeightIndependentSet())
    assert prepared.trace() == [] and res.trace() == []
    assert res.metrics() == {"counters": [], "gauges": [], "histograms": []}
    assert res.metrics(format="prometheus") == ""
    assert sim.obs.timeline == [] and len(sim.obs.recorder) == 0


def test_obs_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "trace")
    assert MPCConfig(n=64).obs == "trace"
    monkeypatch.delenv("REPRO_OBS")
    assert MPCConfig(n=64).obs == "off"
    with pytest.raises(ValueError):
        MPCConfig(n=64, obs="verbose")


def test_off_overhead_within_noise_of_instrumented_run():
    """A solve_many-style loop under obs="off" must not be slower than the
    fully instrumented run (generous slack: this is a noise bound, not a
    micro-benchmark)."""
    n, loops = 300, 3

    def run(mode: str) -> float:
        best = float("inf")
        for _ in range(2):
            prepared = _prepared(n, obs=mode)
            problem = MaxWeightIndependentSet()
            t0 = clock.now()
            for _ in range(loops):
                solve_on(prepared, problem)
            best = min(best, clock.now() - t0)
        return best

    off, traced = run("off"), run("trace")
    assert off <= traced * 1.5 + 0.05, (
        f"obs='off' loop took {off:.3f}s vs {traced:.3f}s instrumented — "
        "the off path must reduce to attribute checks"
    )


# --------------------------------------------------------------------------- #
# Golden nested trace, inline vs process
# --------------------------------------------------------------------------- #


def _span_structure(spans):
    """(name, parent-name) edges, driver-side only (worker/exec spans are
    backend-specific by design)."""
    names = {s["span_id"]: s["name"] for s in spans}
    return sorted(
        (s["name"], names.get(s["parent_id"]))
        for s in spans
        if not s["name"].startswith(("worker.", "exec."))
    )


def _traced_solve(n: int, backend: str):
    prepared = _prepared(n, obs="trace", exec_backend=backend)
    res = solve_on(prepared, MaxWeightIndependentSet())
    return prepared, res


def test_golden_nested_trace_stable_across_backends():
    prep_i, res_i = _traced_solve(400, "inline")
    prep_p, res_p = _traced_solve(400, "process")

    inline_spans, process_spans = res_i.trace(), res_p.trace()
    assert _span_structure(inline_spans) == _span_structure(process_spans)

    # Golden skeleton: the prepare phases under "prepare", dp.layer under
    # "solve", both roots parentless.
    edges = set(_span_structure(inline_spans))
    for phase in ("normalize", "degree_reduction", "clustering"):
        assert (f"prepare.{phase}", "prepare") in edges
    assert ("prepare", None) in edges and ("solve", None) in edges
    assert ("dp.layer", "solve") in edges

    # Process backend: every worker span re-parents under an exec.* span,
    # and exec spans sit under driver spans — one connected trace.
    by_id = {s["span_id"]: s for s in process_spans}
    workers = [s for s in process_spans if s["name"].startswith("worker.")]
    execs = [s for s in process_spans if s["name"].startswith("exec.")]
    assert workers and execs
    for w in workers:
        parent = by_id[w["parent_id"]]
        assert parent["name"].startswith("exec.")
    for e in execs:
        assert e["parent_id"] in by_id

    # Same answer either way, naturally.
    assert res_i.value == res_p.value


# --------------------------------------------------------------------------- #
# Round timeline == RoundStats (acceptance criterion)
# --------------------------------------------------------------------------- #


def test_round_timeline_sums_bit_identically_to_roundstats():
    prepared, _res = _traced_solve(1000, "process")
    sim = prepared.sim
    totals = sim.obs.timeline_totals()
    stats = sim.stats
    assert totals["rounds"] == stats.rounds
    assert totals["charged_rounds"] == stats.charged_rounds
    assert totals["total_words_sent"] == stats.total_words_sent
    assert totals["charged_words"] == stats.charged_words
    assert totals["rounds_by_label"] == stats.rounds_by_label
    assert totals["charged_by_label"] == stats.charged_by_label
    assert totals["charged_words_by_label"] == stats.charged_words_by_label
    # The timeline is the trace's round record: events carry the backend.
    assert any(ev["backend"] == "process" for ev in sim.obs.timeline)


def test_trace_lines_are_json_lines():
    prepared, res = _traced_solve(200, "inline")
    lines = prepared.sim.obs.trace_lines()
    assert len(lines) == len(res.trace()) + len(prepared.sim.obs.timeline)
    kinds = {json.loads(line)["type"] for line in lines}
    assert kinds == {"span", "round"}


def test_obs_dir_dump(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
    _prepared_tree, _res = _traced_solve(200, "inline")
    names = sorted(f.name for f in tmp_path.iterdir())
    assert any(n.startswith("obs-metrics-") and n.endswith(".json") for n in names)
    assert any(n.startswith("obs-trace-") and n.endswith(".jsonl") for n in names)


# --------------------------------------------------------------------------- #
# Serving metrics under reader/writer stress
# --------------------------------------------------------------------------- #


def test_serving_latency_histograms_populate_under_stress():
    from repro.dynamic import node_update

    prepared = _prepared(300, obs="metrics")
    server = prepared.serve(MaxWeightIndependentSet())
    nodes = sorted(prepared.original_tree.nodes())

    async def main():
        async with server:
            async def writer():
                for i in range(6):
                    await server.update(
                        node_update(nodes[(7 * i) % len(nodes)], float(i + 1))
                    )

            wtask = asyncio.get_running_loop().create_task(writer())

            async def reader():
                while not wtask.done():
                    server.snapshot()
                    await asyncio.sleep(0)

            await asyncio.gather(wtask, *(reader() for _ in range(4)))

    asyncio.run(main())

    hists = {
        (h["name"]): h for h in server.metrics(format="json")["histograms"]
    }
    for name in (
        "repro_serving_update_seconds",
        "repro_serving_read_seconds",
        "repro_serving_request_seconds",
        "repro_serving_batch_updates",
    ):
        assert hists[name]["count"] > 0, f"{name} never observed"
    assert hists["repro_serving_update_seconds"]["count"] == 6

    text = server.metrics()
    assert "# TYPE repro_serving_update_seconds histogram" in text
    assert "repro_serving_read_seconds_bucket" in text
    assert 'le="+Inf"' in text

    report = server.health_report()
    assert report["metrics"] is not None
    counter_names = {c["name"] for c in report["metrics"]["counters"]}
    assert "repro_serving_ticks_total" in counter_names

    with pytest.raises(ValueError):
        server.metrics(format="xml")


def test_server_off_mode_exposes_empty_metrics():
    prepared = _prepared(200, obs="off")
    server = prepared.serve(MaxWeightIndependentSet())
    assert server.metrics() == ""
    assert server.metrics(format="json") == {
        "counters": [],
        "gauges": [],
        "histograms": [],
    }
    assert server.health_report()["metrics"] is None


# --------------------------------------------------------------------------- #
# Shared-context override (benchmark harness hook)
# --------------------------------------------------------------------------- #


def test_install_shared_overrides_config():
    from repro.obs.context import install_shared

    shared = ObsContext("metrics")
    prev = install_shared(shared)
    try:
        sim = MPCSimulator(MPCConfig(n=128, obs="off"))  # override wins
        assert sim.obs is shared
    finally:
        install_shared(prev)
    assert MPCSimulator(MPCConfig(n=128, obs="off")).obs is OBS_OFF


def test_obs_context_validates_mode():
    with pytest.raises(ValueError):
        ObsContext("loud")
