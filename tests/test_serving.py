"""The serving layer: batched updates, snapshot-isolated reads, healing.

The acceptance contract of :mod:`repro.serving`:

* every served answer is **bit-identical** to a from-scratch ``solve()`` on
  the tree at the same batch boundary (differentially asserted after every
  batch, and for every read a concurrent reader makes during the stress
  test);
* reads are snapshot-isolated — a reader racing a write batch observes a
  complete pre- or post-batch state, never a torn one;
* publication extracts no output: a snapshot's ``output`` is built on its
  first read, once, from its own version, even after later batches;
* a batch poisoned mid-pass fails only its own submitters, keeps serving
  the pre-batch snapshot, and the next batch heals bit-identically (the
  incremental layer's pending-dirty path, driven through the server);
* the multi-problem group shares one dirty-seed computation per batch;
* overlapping ``apply`` calls on one solver raise
  :class:`~repro.dynamic.ConcurrentUpdateError` instead of corrupting
  state;
* a long update stream holds **flat memory**: the dense kernel's
  payload-value-keyed caches stay at their LRU bounds and its backpointer
  store at its clustering-fixed size over a 1000-batch soak.

The whole file runs on the deployment default exec backend, so the CI
``serving`` job re-runs it under ``REPRO_EXEC_BACKEND=process``; the chaos
legs pin their backends explicitly.
"""

from __future__ import annotations

import asyncio
import functools
import random
import sys
import threading
import time

import pytest

from repro.core.pipeline import prepare, solve, solve_on
from repro.dynamic import (
    ConcurrentUpdateError,
    IncrementalSolverGroup,
    edge_update,
    node_update,
)
from repro.mpc.config import MPCConfig
from repro.mpc.exec import FaultPlan, InjectedFault
from repro.mpc.simulator import MPCSimulator
from repro.problems.max_weight_independent_set import MaxWeightIndependentSet
from repro.problems.max_weight_matching import MaxWeightMatching
from repro.problems.min_weight_dominating_set import MinWeightDominatingSet
from repro.problems.min_weight_vertex_cover import MinWeightVertexCover
from repro.problems.subtree_aggregation import RootToNodeSum
from repro.serving import (
    ServerClosedError,
    ServerConfig,
    Snapshot,
    SnapshotStore,
)
from repro.trees import generators as gen
from repro.trees.tree import RootedTree

from tests.conftest import ValueKeyedMatching

MWIS = MaxWeightIndependentSet
PROBE_COUNT = 5


def _tree(n=120, seed=5):
    return gen.with_random_weights(gen.random_attachment_tree(n, seed=seed), seed=seed)


def _prepared(tree, n, **cfg):
    return prepare(tree, sim=MPCSimulator(MPCConfig(n=n, **cfg)))


def _assert_matches_fresh(snap: Snapshot, tree, problem) -> None:
    """The served snapshot must be bit-identical to a from-scratch solve."""
    ref = solve(tree, problem)
    assert snap.value == ref.value
    assert snap.root_label == ref.root_label
    assert dict(snap.node_labels) == dict(ref.node_labels)
    assert dict(snap.edge_labels) == dict(ref.edge_labels)


# --------------------------------------------------------------------------- #
# Basic serving behaviour
# --------------------------------------------------------------------------- #


def test_server_serves_initial_state_before_start():
    """Reads need no writer: construction publishes the version-0 snapshots."""
    tree = _tree(n=80, seed=11)
    server = _prepared(tree, 80).serve(MWIS())
    snap = server.snapshot()
    assert snap.version == 0
    _assert_matches_fresh(snap, tree, MWIS())
    assert server.health.queries_served == 1


def test_update_requires_running_writer():
    tree = _tree(n=60, seed=12)
    server = _prepared(tree, 60).serve(MWIS())

    async def main():
        with pytest.raises(ServerClosedError, match="not running"):
            await server.update(node_update(tree.nodes()[1], 2.0))
        async with server:
            await server.update(node_update(tree.nodes()[1], 2.0))
        # Stopped servers refuse writes and cannot restart.
        with pytest.raises(ServerClosedError):
            await server.update(node_update(tree.nodes()[1], 3.0))
        with pytest.raises(ServerClosedError):
            await server.start()
        await server.stop()  # idempotent

    asyncio.run(main())


def test_serve_differential_at_every_batch_boundary():
    """Mixed node/edge batches; after each, the snapshot equals solve()."""
    tree = _tree(n=120, seed=13)
    server = _prepared(tree, 120).serve(MWIS())
    rng = random.Random(99)
    nodes = sorted(tree.nodes())
    edges = [(v, tree.parent[v]) for v in nodes if v != tree.root]

    async def main():
        async with server:
            for step in range(8):
                ups = [
                    node_update(rng.choice(nodes), round(rng.uniform(0.1, 9.9), 3))
                    for _ in range(rng.randint(1, 4))
                ]
                if step % 2:
                    ups.append(edge_update(rng.choice(edges), {"w": rng.random()}))
                res = await server.update(ups)
                assert res.version == step + 1
                assert res.updates == len(ups)
                snap = server.snapshot()
                assert snap.version == res.version
                _assert_matches_fresh(snap, tree, MWIS())
            assert (await server.query_value()) == server.snapshot().value
            probe = sorted(tree.nodes())[2]
            assert (await server.query_label(probe)) == server.snapshot().node_labels[probe]

    asyncio.run(main())
    report = server.health_report()["server"]
    assert report["batches_applied"] == 8
    assert report["batch_failures"] == 0
    assert report["snapshots_published"] == 9  # initial + 8 batches


@pytest.mark.parametrize(
    "make_tree",
    [gen.star_tree, gen.two_level_tree, gen.broom_tree],
    ids=["star", "two-level", "broom"],
)
def test_degree_reduced_snapshots_match_solve_on_after_every_batch(make_tree):
    """On a tree the degree reduction splits, every published snapshot and
    every ``view()`` carries the labels of the original edges, exactly as a
    from-scratch ``solve_on`` projects them, batch after batch."""
    n = 400
    tree = gen.with_random_weights(make_tree(n), seed=n)
    rng = random.Random(n)
    tree.edge_data = {e: round(rng.uniform(0, 5), 3) for e in tree.edges()}
    problems = [MWIS(), MaxWeightMatching()]
    prepared = _prepared(tree, n)
    assert not prepared.reduction.is_identity, "the test tree must be degree-reduced"
    server = prepared.serve(problems)
    nodes = sorted(tree.nodes())
    edges = sorted(tree.edges())

    def check():
        for p in problems:
            ref = solve_on(prepare(tree), p)
            view = server.group.view(p.name)
            for got in (view, server.snapshot(p.name)):
                assert got.value == ref.value
                assert got.root_label == ref.root_label
                assert dict(got.node_labels) == ref.node_labels
                assert dict(got.edge_labels) == ref.edge_labels
                assert got.output == ref.output

    async def main():
        check()
        async with server:
            for _ in range(6):
                ups = [node_update(rng.choice(nodes), round(rng.uniform(0.1, 9.9), 3))]
                ups.append(edge_update(rng.choice(edges), round(rng.uniform(0, 5), 3)))
                await server.update(ups)
                check()

    asyncio.run(main())


def test_multi_problem_group_shares_seeds_and_stays_bit_identical():
    """solve_many-style serving: one dirty-seed computation, N problems."""
    tree = _tree(n=100, seed=14)
    problems = [MWIS(), MinWeightVertexCover(), MinWeightDominatingSet()]
    server = _prepared(tree, 100).serve(problems)
    assert len(server.problems) == 3
    rng = random.Random(7)
    nodes = sorted(tree.nodes())

    async def main():
        async with server:
            for _ in range(5):
                ups = [node_update(rng.choice(nodes), rng.uniform(0.5, 5.0)) for _ in range(2)]
                res = await server.update(ups)
                # One shared seed computation: every member saw the same
                # dirty seed set (all three problems have node scope).
                seeds = {rep.dirty_seed_clusters for rep in res.reports.values()}
                assert len(seeds) == 1
                for p in problems:
                    _assert_matches_fresh(server.snapshot(p.name), tree, p)
            versions = server.store.versions()
            assert set(versions.values()) == {5}

    asyncio.run(main())
    with pytest.raises(ValueError, match="name one"):
        server.snapshot()  # multi-problem servers need an explicit name


def test_bad_update_rejected_alone_without_poisoning_the_batch():
    """An invalid descriptor fails its submitter at submit time; the queue,
    the version counter and other clients are untouched."""
    tree = _tree(n=60, seed=15)
    server = _prepared(tree, 60).serve(MWIS())

    async def main():
        async with server:
            with pytest.raises(KeyError, match="not a node"):
                await server.update(node_update("no-such-node", 1.0))
            assert server.version == 0
            res = await server.update(node_update(tree.nodes()[2], 4.0))
            assert res.version == 1
            _assert_matches_fresh(server.snapshot(), tree, MWIS())

    asyncio.run(main())
    assert server.health.updates_rejected == 1
    assert server.health.updates_applied == 1


def test_concurrent_submissions_coalesce_into_one_batch():
    """With a linger delay, concurrent submitters share one solver pass."""
    tree = _tree(n=80, seed=16)
    server = _prepared(tree, 80).serve(MWIS(), config=ServerConfig(max_delay=0.05))
    nodes = sorted(tree.nodes())

    async def main():
        async with server:
            results = await asyncio.gather(
                *(server.update(node_update(nodes[i], float(i))) for i in range(1, 13))
            )
            assert {r.version for r in results} == {1}
            assert all(r.updates == 12 for r in results)
            _assert_matches_fresh(server.snapshot(), tree, MWIS())

    asyncio.run(main())
    assert server.health.batches_applied == 1
    assert server.health.updates_applied == 12


# --------------------------------------------------------------------------- #
# Snapshot isolation under concurrent readers (the stress test)
# --------------------------------------------------------------------------- #


def test_stress_concurrent_readers_see_only_batch_boundaries():
    """Readers hammer the store while a writer streams batches; every read
    must be bit-identical to a from-scratch solve of the tree state at the
    version it observed — i.e. reads see pre- or post-batch snapshots only,
    never a torn or intermediate state."""
    n, seed, batches = 150, 17, 10
    tree = _tree(n=n, seed=seed)
    server = _prepared(tree, n).serve(MWIS())
    nodes = sorted(tree.nodes())
    probes = nodes[:PROBE_COUNT]
    rng = random.Random(4)
    batch_log = []  # (version, updates) in application order
    reads = []  # (version, value, root_label, probe labels)

    async def writer():
        for _ in range(batches):
            ups = [
                node_update(rng.choice(nodes), round(rng.uniform(0.1, 9.9), 3))
                for _ in range(3)
            ]
            res = await server.update(ups)
            batch_log.append((res.version, ups))

    def read_once():
        snap = server.snapshot()
        reads.append(
            (
                snap.version,
                snap.value,
                snap.root_label,
                tuple(snap.node_labels[p] for p in probes),
            )
        )

    async def reader(writer_task):
        while not writer_task.done():
            read_once()
            await asyncio.sleep(0)

    async def main():
        async with server:
            wtask = asyncio.get_running_loop().create_task(writer())
            await asyncio.gather(wtask, *(reader(wtask) for _ in range(4)))
            read_once()  # guarantee the final version is observed

    asyncio.run(main())

    # The single writer awaited each batch, so version v == the first v
    # batches applied in order.  Replay them on a fresh copy of the tree and
    # solve from scratch at every boundary.
    assert [v for v, _ in batch_log] == list(range(1, batches + 1))
    replica = _tree(n=n, seed=seed)
    expected = {}
    for version in range(batches + 1):
        if version > 0:
            for up in batch_log[version - 1][1]:
                replica.node_data[up.target] = up.data
        ref = solve(replica, MWIS())
        expected[version] = (
            ref.value,
            ref.root_label,
            tuple(ref.node_labels[p] for p in probes),
        )

    observed_versions = {r[0] for r in reads}
    assert observed_versions <= set(range(batches + 1))
    assert len(observed_versions) >= 2, "readers never observed an update"
    assert batches in observed_versions
    for version, value, root_label, labels in reads:
        assert (value, root_label, labels) == expected[version], (
            f"torn or stale read at version {version}"
        )


def test_reads_are_served_while_a_batch_builds_its_snapshots():
    """The snapshots are built in the writer's worker thread, not on the
    event loop: while the build is held, reads on the loop return the
    previous version promptly, and the loop itself releases the build."""
    tree = _tree(n=80, seed=16)
    server = _prepared(tree, 80).serve(MWIS())
    building, release = threading.Event(), threading.Event()
    released = []
    views = server.group.views

    def held_views():
        building.set()
        released.append(release.wait(2.0))
        return views()

    server.group.views = held_views

    async def main():
        async with server:
            pending = asyncio.ensure_future(server.update(node_update(tree.nodes()[3], 4.5)))
            deadline = time.monotonic() + 2.0
            while not building.is_set():
                assert time.monotonic() < deadline, "the batch never built its snapshots"
                await asyncio.sleep(0.001)
            t0 = time.monotonic()
            assert server.snapshot().version == 0
            assert (await server.query_value()) == server.snapshot().value
            assert time.monotonic() - t0 < 0.5
            release.set()
            res = await pending
            assert res.version == 1
            assert server.snapshot().version == 1

    asyncio.run(main())
    assert released == [True], "the snapshot build held the event loop"
    tree.node_data[tree.nodes()[3]] = 4.5
    _assert_matches_fresh(server.snapshot(), tree, MWIS())


# --------------------------------------------------------------------------- #
# Output on first read
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "make_problem",
    [RootToNodeSum, MWIS, MaxWeightMatching],
    ids=["root-to-node-sum", "mwis", "mwm"],
)
def test_kept_snapshot_output_is_built_from_its_own_version(make_problem):
    """A snapshot kept across a batch that rewrites the same payloads builds,
    on its first read, the output of its own version.  RootToNodeSum's
    extract reads node payloads, so an output built from the live tree
    would carry the later batch's payload."""
    n = 120
    tree = _tree(n=n, seed=31)
    server = _prepared(tree, n).serve(make_problem())
    target = sorted(tree.nodes())[7]
    edge = (target, tree.parent[target])

    def batch(weight):
        return [node_update(target, weight), edge_update(edge, weight)]

    async def main():
        async with server:
            await server.update(batch(1000.0))
            kept = server.snapshot()
            version1 = RootedTree(
                root=tree.root,
                parent=dict(tree.parent),
                node_data=dict(tree.node_data),
                edge_data=dict(tree.edge_data),
            )
            await server.update(batch(0.001))
            return kept, version1

    kept, version1 = asyncio.run(main())
    latest = server.snapshot()
    assert (kept.version, latest.version) == (1, 2)
    assert kept.output == solve(version1, make_problem()).output
    assert latest.output == solve(tree, make_problem()).output
    assert kept.output != latest.output, "the second batch must change the output"


def test_publication_extracts_nothing_until_output_is_read():
    """Publishing a batch builds no output: over a 20-batch stream whose
    reads query values and labels only, no member calls ``extract``.
    Reading one snapshot's output twice extracts once."""
    n = 120
    tree = _tree(n=n, seed=33)
    problems = [MWIS(), MaxWeightMatching()]
    server = _prepared(tree, n).serve(problems)
    calls = dict.fromkeys(server.problems, 0)

    def counting(name, extract, *args):
        calls[name] += 1
        return extract(*args)

    for name, member in server.group.solvers.items():
        member.solver.extract = functools.partial(counting, name, member.solver.extract)
    rng = random.Random(8)
    nodes = sorted(tree.nodes())

    async def main():
        async with server:
            for _ in range(20):
                await server.update(node_update(rng.choice(nodes), rng.uniform(0.1, 9.9)))
                for p in problems:
                    await server.query_value(p.name)
                    await server.query_label(nodes[3], p.name)

    asyncio.run(main())
    assert server.version == 20
    assert calls == dict.fromkeys(server.problems, 0)
    snap = server.snapshot(MWIS.name)
    first = snap.output
    assert snap.output is first
    assert calls == {MWIS.name: 1, MaxWeightMatching.name: 0}
    assert first == solve(tree, MWIS()).output


def test_concurrent_first_reads_build_the_output_once():
    """Readers racing on fresh views' outputs (more threads than cores, a
    shortened switch interval) build each output once and all get the same
    object.  Neither equality nor ``repr`` sees whether it was built."""
    tree = _tree(n=60, seed=34)
    group = IncrementalSolverGroup(_prepared(tree, 60), [MWIS()])
    member = group.solver()
    extract = member.solver.extract
    calls = []

    def counted(*args):
        calls.append(None)
        return extract(*args)

    member.solver.extract = counted
    views = [group.view() for _ in range(20)]
    threads = 8
    results = [[] for _ in views]
    start = threading.Barrier(threads)

    def read():
        start.wait(10)
        for got, view in zip(results, views):
            got.append(view.output)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read, daemon=True) for _ in range(threads)]
        for r in readers:
            r.start()
        for r in readers:
            r.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(r.is_alive() for r in readers)
    assert len(calls) == len(views)
    for got in results:
        assert len(got) == threads and all(x is got[0] for x in got)
    unread = group.view()
    assert unread == views[0] and repr(unread) == repr(views[0])
    assert "_output" not in repr(unread)


# --------------------------------------------------------------------------- #
# Failure containment and healing
# --------------------------------------------------------------------------- #


def test_poisoned_batch_fails_its_futures_and_next_batch_heals():
    """A batch that dies mid-pass (payloads written, chains half-solved)
    fails its submitters, keeps serving the pre-batch snapshot, and the
    next batch heals bit-identically through the pending-dirty path."""
    tree = _tree(n=120, seed=21)
    prepared = _prepared(tree, 120)
    plan = FaultPlan.parse("poison@update-layer:1")
    server = prepared.serve(MWIS(), fault_plan=plan)
    nodes = tree.nodes()
    pre = server.snapshot()

    async def main():
        async with server:
            with pytest.raises(InjectedFault):
                await server.update(node_update(nodes[5], 9999.0))
            # The failed batch published nothing: reads still see version 0.
            snap = server.snapshot()
            assert snap.version == 0
            assert snap.value == pre.value
            # The repair batch folds the pending chains back in.
            res = await server.update(node_update(nodes[3], 1.25))
            assert res.version == 1
            assert plan.remaining() == 0
            _assert_matches_fresh(server.snapshot(), tree, MWIS())

    asyncio.run(main())
    assert server.health.batch_failures == 1
    assert server.health.batches_applied == 1


def test_failed_snapshot_build_fails_the_batch_and_publishes_nothing():
    """A raising ``views()`` fails its batch like a raising solver pass: the
    submitter sees the error, the previous snapshots stay served and the
    version is not consumed."""
    tree = _tree(n=60, seed=17)
    server = _prepared(tree, 60).serve(MWIS())
    views = server.group.views
    calls = []

    def failing_once():
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("snapshot build failed")
        return views()

    server.group.views = failing_once
    nodes = sorted(tree.nodes())

    async def main():
        async with server:
            with pytest.raises(RuntimeError, match="snapshot build failed"):
                await server.update(node_update(nodes[2], 3.5))
            assert server.snapshot().version == 0
            res = await server.update(node_update(nodes[5], 1.25))
            assert res.version == 1

    asyncio.run(main())
    report = server.health_report()["server"]
    assert report["batch_failures"] == 1
    assert report["batches_applied"] == 1
    tree.node_data[nodes[2]] = 3.5
    tree.node_data[nodes[5]] = 1.25
    _assert_matches_fresh(server.snapshot(), tree, MWIS())


@pytest.mark.chaos
def test_chaos_process_backend_server_heals_bit_identically():
    """The PR-8 ladder under the server: a worker SIGKILLed by a FaultPlan
    during a pooled solve on the deployment, then a driver-side poison
    mid-update-batch.  The server must come up, fail only the poisoned
    batch and keep every served answer bit-identical.  (The server's own
    solves and update passes run driver-inline by design, so the worker
    fault targets a full solve on the same deployment before it starts.)
    """
    tree = _tree(n=120, seed=23)
    prepared = _prepared(
        tree,
        120,
        exec_backend="process",
        exec_workers=2,
        exec_backoff=0.01,
        exec_faults="kill@w0:2:dp_solve",
    )
    pooled = solve_on(prepared, MWIS())
    assert pooled.exec_health is not None
    assert pooled.exec_health["worker_deaths"] == 1
    plan = FaultPlan.parse("poison@update-layer:1")
    server = prepared.serve(MWIS(), fault_plan=plan)
    nodes = tree.nodes()

    async def main():
        async with server:
            with pytest.raises(InjectedFault):
                await server.update(node_update(nodes[5], 512.0))
            res = await server.update(node_update(nodes[7], 0.25))
            assert res.version == 1
            _assert_matches_fresh(server.snapshot(), tree, MWIS())

    try:
        asyncio.run(main())
        health = server.health_report()
        assert health["server"]["batch_failures"] == 1
        assert health["exec"] is not None
        assert health["exec"]["worker_deaths"] >= 1
    finally:
        prepared.sim.executor.close()


def test_concurrent_apply_raises_instead_of_corrupting():
    """Overlapping apply calls — a second thread entering while a pass is
    mid-flight — raise ConcurrentUpdateError; the first batch completes and
    the solver stays bit-identical."""
    tree = _tree(n=80, seed=24)
    prepared = _prepared(tree, 80)
    inc = prepared.incremental(MWIS())
    nodes = sorted(tree.nodes())

    entered, release = threading.Event(), threading.Event()
    orig = inc.engine.summarize_clusters

    def stalled(*args, **kwargs):
        entered.set()
        assert release.wait(10)
        return orig(*args, **kwargs)

    inc.engine.summarize_clusters = stalled
    worker = threading.Thread(target=inc.update_node, args=(nodes[3], 7.5))
    worker.start()
    try:
        assert entered.wait(10)
        with pytest.raises(ConcurrentUpdateError, match="already"):
            inc.update_node(nodes[4], 1.5)
    finally:
        release.set()
        worker.join(30)
    inc.engine.summarize_clusters = orig

    # The guard is released: further updates apply and match from-scratch.
    inc.update_node(nodes[4], 1.5)
    got = inc.as_pipeline_result()
    ref = solve(tree, MWIS())
    assert (got.value, got.node_labels) == (ref.value, ref.node_labels)


def test_group_apply_claims_all_member_guards_atomically():
    tree = _tree(n=60, seed=25)
    prepared = _prepared(tree, 60)
    group = IncrementalSolverGroup(prepared, [MWIS(), MinWeightVertexCover()])
    second = group.solvers[group.problems[1]]
    second._begin_apply()  # simulate a member busy elsewhere
    try:
        with pytest.raises(ConcurrentUpdateError):
            group.apply_updates([node_update(tree.nodes()[2], 2.0)])
    finally:
        second._end_apply()
    # The failed acquire left no guard behind: the group applies cleanly.
    reports = group.apply_updates([node_update(tree.nodes()[2], 2.0)])
    for name in group.problems:
        assert reports[name].updates == 1
    for p in (MWIS(), MinWeightVertexCover()):
        ref = solve(tree, p)
        assert group.view(p.name).value == ref.value


def test_group_member_failure_marks_skipped_members_pending():
    """If one member's resolve dies mid-group-batch, members the failure
    skipped refuse stale reads and heal on the next batch."""
    tree = _tree(n=100, seed=26)
    prepared = _prepared(tree, 100)
    plan = FaultPlan.parse("poison@update-layer:0")
    group = IncrementalSolverGroup(
        prepared, [MWIS(), MinWeightVertexCover()], fault_plan=plan
    )
    nodes = tree.nodes()
    with pytest.raises(InjectedFault):
        group.apply_updates([node_update(nodes[4], 321.0)])
    # The first member died mid-pass; the second never ran.  Both must
    # refuse to serve and both must heal.
    for name in group.problems:
        with pytest.raises(RuntimeError, match="stale"):
            group.view(name)
    group.apply_updates([node_update(nodes[6], 1.5)])
    for p in (MWIS(), MinWeightVertexCover()):
        ref = solve(tree, p)
        view = group.view(p.name)
        assert view.value == ref.value
        assert dict(view.node_labels) == dict(ref.node_labels)


# --------------------------------------------------------------------------- #
# Bounded caches: the 1000-batch soak
# --------------------------------------------------------------------------- #


def test_soak_1000_batches_flat_memory():
    """A long stream of *distinct* edge weights used to grow the dense
    kernel's value-keyed transition cache one entry per weight (refresh()
    being the only valve); the LRU bound must keep every cache flat over
    1000 batches while staying bit-identical to from-scratch solves.
    The vehicle is matching with its affine edge declaration withdrawn, a
    value-keyed, non-affine rule: every distinct edge weight is a distinct
    cache key — the worst case."""
    n, bound = 48, 32
    tree = _tree(n=n, seed=27)
    prepared = _prepared(tree, n)
    inc = prepared.incremental(ValueKeyedMatching(), cache_entries=bound)
    dense = inc.solver._dense
    assert dense is not None
    edges = [(v, tree.parent[v]) for v in sorted(tree.nodes()) if v != tree.root]
    rng = random.Random(1)

    sizes_at = {}
    traces_at = {}
    for batch in range(1, 1001):
        # A fresh, never-seen weight each batch: the unbounded cache would
        # hold ~1000 transition tensors by the end.
        weight = round(1.0 + batch / 1000.0 + rng.random() * 1e-6, 9)
        inc.apply_updates([edge_update(rng.choice(edges), {"weight": weight})])
        if batch % 250 == 0:
            sizes_at[batch] = dict(dense.tensors.value_cache_sizes())
            for name, size in sizes_at[batch].items():
                assert size <= bound, f"{name} cache exceeded its bound at batch {batch}"
            traces_at[batch] = dense.trace_store_bytes()

    # Flat, not merely bounded: saturated sizes do not creep between probes.
    assert sizes_at[500] == sizes_at[750] == sizes_at[1000]
    assert sizes_at[1000]["transition"] == bound, "the soak never saturated the bound"
    assert dense.tensors.value_cache_evictions() > 500
    # The backpointer store is sized by the clustering: it cannot grow.
    assert traces_at[500] == traces_at[750] == traces_at[1000] > 0
    # Evictions never cost correctness.
    got = inc.as_pipeline_result()
    ref = solve(tree, MaxWeightMatching())
    assert (got.value, got.edge_labels) == (ref.value, ref.edge_labels)
    assert inc.updates_applied == 1000


# --------------------------------------------------------------------------- #
# Component units: config, snapshot store, LRU cache
# --------------------------------------------------------------------------- #


def test_server_config_env_fallbacks(monkeypatch):
    assert ServerConfig().max_batch == 256
    monkeypatch.setenv("REPRO_SERVING_MAX_BATCH", "7")
    monkeypatch.setenv("REPRO_SERVING_MAX_DELAY", "0.25")
    monkeypatch.setenv("REPRO_SERVING_QUEUE_LIMIT", "11")
    cfg = ServerConfig()
    assert (cfg.max_batch, cfg.max_delay, cfg.queue_limit) == (7, 0.25, 11)
    assert ServerConfig(max_batch=3).max_batch == 3  # explicit beats env
    with pytest.raises(ValueError, match="max_batch"):
        ServerConfig(max_batch=0)
    with pytest.raises(ValueError, match="cache_entries"):
        ServerConfig(cache_entries=0)
    monkeypatch.setenv("REPRO_SERVING_MAX_BATCH", "many")
    with pytest.raises(ValueError, match="REPRO_SERVING_MAX_BATCH"):
        ServerConfig()


def test_snapshot_store_refuses_version_regression():
    from repro.dynamic import SolvedView

    def view(v):
        return Snapshot(
            problem="p",
            version=v,
            view=SolvedView(
                problem="p",
                value=v,
                root_label=None,
                node_labels={},
                edge_labels={},
                updates_applied=v,
                build_output=lambda: None,
            ),
        )

    store = SnapshotStore()
    store.publish_all([view(0)])
    store.publish_all([view(1)])
    assert store.current("p").value == 1
    with pytest.raises(ValueError, match="regression"):
        store.publish_all([view(1)])
    with pytest.raises(KeyError, match="no snapshot"):
        store.current("q")


def test_lru_cache_semantics(monkeypatch):
    from repro.dp.kernels.tensors import LRUCache, default_cache_entries

    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes recency: b is now the LRU entry
    cache.put("c", 3)
    assert cache.evictions == 1
    assert "b" not in cache and cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    cache.set_entries(1)
    assert len(cache) == 1 and cache.evictions == 2
    with pytest.raises(ValueError):
        LRUCache(0)

    monkeypatch.setenv("REPRO_DP_CACHE_ENTRIES", "123")
    assert default_cache_entries() == 123
    monkeypatch.setenv("REPRO_DP_CACHE_ENTRIES", "0")
    assert default_cache_entries() is None  # 0 = unbounded
    monkeypatch.setenv("REPRO_DP_CACHE_ENTRIES", "lots")
    with pytest.raises(ValueError, match="REPRO_DP_CACHE_ENTRIES"):
        default_cache_entries()
    monkeypatch.delenv("REPRO_DP_CACHE_ENTRIES")
    assert default_cache_entries() == 4096
