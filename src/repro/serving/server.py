"""The always-on serving front-end over a prepared tree (:class:`TreeServer`).

Architecture (one server = one prepared tree + N problems):

* **Write path.**  ``update()`` validates the submission against the tree
  (bad descriptors are rejected alone, before they can poison a shared
  batch), then enqueues it on the :class:`~repro.serving.UpdateBatcher`.
  The single writer task coalesces queued submissions into one batch per
  tick and applies it through the
  :class:`~repro.dynamic.IncrementalSolverGroup` in a worker thread
  (``asyncio.to_thread``), so the event loop keeps serving reads while the
  dirty chains re-solve.  The group writes the batch's payloads and
  computes its dirty seed set once for all problems.
* **Read path.**  Queries never touch the solvers: they read the
  :class:`~repro.serving.SnapshotStore`, whose per-batch publication is a
  single reference swap of immutable :class:`~repro.dynamic.SolvedView`
  snapshots.  A read therefore sees the complete pre-batch or post-batch
  state — never a torn one — even while a batch is mid-flight.
* **Barrier placement.**  The MPC driver barrier stays where the engine
  put it: inside the solver pass, between cluster layers.  The server adds
  exactly one serialization point above it (the writer task); nothing in
  the serving layer communicates between simulated machines, so rounds and
  words accounting is untouched and still charged under ``"dp-update"``.

Every served answer is bit-identical to a from-scratch ``solve()`` on the
tree at the same batch boundary; the differential stress suite asserts
this under concurrent read/write load, on both exec backends, with chaos
faults injected mid-batch.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import PreparedTree
from repro.dynamic import IncrementalSolverGroup, PointUpdate, UpdateReport
from repro.obs import DEFAULT_SIZE_BUCKETS, clock
from repro.serving.batcher import ServerClosedError, UpdateBatcher
from repro.serving.config import ServerConfig
from repro.serving.health import ServerHealth
from repro.serving.snapshots import Snapshot, SnapshotStore

__all__ = ["BatchApplied", "TreeServer"]


@dataclass(frozen=True)
class BatchApplied:
    """What ``update()`` resolves to: the publication the batch produced."""

    #: Snapshot version the batch published (0 is the initial solve).
    version: int
    #: Total point updates in the batch (yours plus coalesced neighbours').
    updates: int
    #: Per-problem solver reports.
    reports: Dict[str, UpdateReport]


class TreeServer:
    """Serves concurrent point updates and snapshot reads over one tree.

    Parameters
    ----------
    prepared:
        The :class:`~repro.core.pipeline.PreparedTree` to own.  The
        clustering is reused unchanged for the server's whole lifetime
        (structural edits require a new ``prepare()`` and a new server).
    problems:
        One problem instance or a sequence; each is solved on construction
        and served under its ``name``.
    backend / fault_plan:
        Forwarded to every member :class:`~repro.dynamic.IncrementalSolver`
        (``fault_plan`` is the chaos hook used by the fault-injection
        suite).
    config:
        A :class:`~repro.serving.ServerConfig`; ``None`` reads the
        ``REPRO_SERVING_*`` environment.

    Use as an async context manager (or call :meth:`start`/:meth:`stop`):

    >>> async with prepared.serve([mwis, msat]) as server:     # doctest: +SKIP
    ...     await server.update(node_update("v7", {"weight": 2.0}))
    ...     snap = server.snapshot("max-weight-independent-set")
    """

    def __init__(
        self,
        prepared: PreparedTree,
        problems: Union[Any, Sequence[Any]],
        backend: Optional[str] = None,
        config: Optional[ServerConfig] = None,
        fault_plan: Optional[Any] = None,
    ) -> None:
        self.prepared = prepared
        self.config = config if config is not None else ServerConfig()
        if not isinstance(problems, (list, tuple)):
            problems = [problems]
        self.group = IncrementalSolverGroup(
            prepared,
            list(problems),
            backend=backend,
            fault_plan=fault_plan,
            cache_entries=self.config.cache_entries,
        )
        self.health = ServerHealth()
        self.store = SnapshotStore()
        self.obs = prepared.sim.obs
        self._version = 0
        self._publish_views()
        self._batcher = UpdateBatcher(
            self._apply_batch,
            max_batch=self.config.max_batch,  # type: ignore[arg-type]
            max_delay=self.config.max_delay,  # type: ignore[arg-type]
            queue_limit=self.config.queue_limit,  # type: ignore[arg-type]
            obs=self.obs,
        )
        self._writer: Optional["asyncio.Task[None]"] = None
        self._closed = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "TreeServer":
        """Launch the writer task; reads work even before this is called."""
        if self._closed:
            raise ServerClosedError("a stopped TreeServer cannot be restarted")
        if self._writer is None:
            self._writer = asyncio.get_running_loop().create_task(
                self._batcher.run(), name="tree-server-writer"
            )
        return self

    async def stop(self) -> None:
        """Drain accepted batches, then stop the writer.

        Graceful by construction: every submission accepted before the stop
        is applied and answered; submissions racing the stop get
        :class:`~repro.serving.ServerClosedError`.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        await self._batcher.shutdown()
        if self._writer is not None:
            await self._writer
            self._writer = None
        self._batcher.drain_rejected()
        if self.obs.enabled:
            self.obs.dump(tag="server")

    async def __aenter__(self) -> "TreeServer":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    @property
    def running(self) -> bool:
        return self._writer is not None and not self._writer.done()

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    async def update(self, *updates: Union[PointUpdate, Sequence[PointUpdate]]) -> BatchApplied:
        """Submit point updates; returns once their batch is applied.

        Accepts updates directly (``update(u1, u2)``) or as one sequence
        (``update([u1, u2])``).  The whole submission applies atomically in
        one batch — possibly coalesced with concurrent submissions — and
        the call resolves to that batch's :class:`BatchApplied` after its
        snapshots are published, so a subsequent read through any problem
        sees the update.  Invalid descriptors raise here, before queueing,
        and affect nobody else.
        """
        ups = self._flatten(updates)
        if not self.running:
            raise ServerClosedError(
                "the server is not running; use `async with server:` or await start()"
            )
        try:
            self.group.validate(ups)
        except (KeyError, ValueError):
            self.health.updates_rejected += len(ups)
            raise
        self.health.updates_enqueued += len(ups)
        result = await self._batcher.submit(ups)
        assert isinstance(result, BatchApplied)
        return result

    @staticmethod
    def _flatten(
        updates: Tuple[Union[PointUpdate, Sequence[PointUpdate]], ...],
    ) -> List[PointUpdate]:
        ups: List[PointUpdate] = []
        for item in updates:
            if isinstance(item, PointUpdate):
                ups.append(item)
            else:
                ups.extend(item)
        if not ups:
            raise ValueError("update() needs at least one PointUpdate")
        return ups

    async def _apply_batch(self, updates: List[PointUpdate]) -> BatchApplied:
        """Writer-side: one solver pass + one snapshot publication.

        Runs the solver pass in a thread so readers stay live; the group
        serializes overlapping applies below us (ConcurrentUpdateError), but
        the single writer task means that can only trip for out-of-band
        callers touching the group directly.
        """
        obs = self.obs
        t0 = clock.now() if obs.enabled else 0.0
        try:
            reports = await asyncio.to_thread(self.group.apply_updates, updates)
        except BaseException:
            self.health.batch_failures += 1
            raise
        self._version += 1
        self._publish_views()
        if obs.enabled:
            obs.metrics.histogram("repro_serving_update_seconds").observe(
                clock.now() - t0
            )
            obs.metrics.histogram(
                "repro_serving_batch_updates", DEFAULT_SIZE_BUCKETS
            ).observe(len(updates))
        self.health.batches_applied += 1
        self.health.updates_applied += len(updates)
        self.health.last_batch = {
            name: {
                "clusters_resolved": rep.clusters_resolved,
                "clusters_relabeled": rep.clusters_relabeled,
                "full_resolve": rep.full_resolve,
                "value_changed": rep.value_changed,
                "seconds": rep.seconds,
            }
            for name, rep in reports.items()
        }
        return BatchApplied(version=self._version, updates=len(updates), reports=reports)

    def _publish_views(self) -> None:
        self.store.publish_all(
            Snapshot(problem=name, version=self._version, view=view)
            for name, view in self.group.views().items()
        )
        self.health.snapshots_published += len(self.group.solvers)

    # ------------------------------------------------------------------ #
    # Read path (snapshot-isolated)
    # ------------------------------------------------------------------ #

    def _name(self, problem: Optional[str]) -> str:
        if problem is not None:
            return problem
        names = self.group.problems
        if len(names) != 1:
            raise ValueError(f"server hosts {len(names)} problems {names!r}; name one")
        return names[0]

    def snapshot(self, problem: Optional[str] = None) -> Snapshot:
        """The latest published snapshot (synchronous: one dict read)."""
        obs = self.obs
        if obs.enabled:
            t0 = clock.now()
            snap = self.store.current(self._name(problem))
            obs.metrics.histogram("repro_serving_read_seconds").observe(
                clock.now() - t0
            )
        else:
            snap = self.store.current(self._name(problem))
        self.health.queries_served += 1
        return snap

    async def query_value(self, problem: Optional[str] = None) -> Any:
        """The problem's optimum at the latest batch boundary."""
        return self.snapshot(problem).value

    async def query_label(self, node: Hashable, problem: Optional[str] = None) -> Any:
        """One node's label at the latest batch boundary.

        Labels are on *original* tree nodes (degree-reduction projected
        away); raises ``KeyError`` for unknown nodes of label-producing
        problems.
        """
        snap = self.snapshot(problem)
        labels = snap.node_labels
        if node not in labels:
            raise KeyError(f"node {node!r} has no label in {snap.problem!r}")
        return labels[node]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def problems(self) -> Tuple[str, ...]:
        return self.group.problems

    @property
    def version(self) -> int:
        """The latest published batch version."""
        return self._version

    def health_report(self) -> Dict[str, Any]:
        """Server counters plus the exec pool's supervision report.

        When observability is on (``MPCConfig.obs != "off"``) the report
        also embeds the run's metric exposition under ``"metrics"``.
        """
        metrics = self.obs.metrics.to_json() if self.obs.enabled else None
        return self.health.as_dict(
            exec_health=self.prepared.exec_health(), metrics=metrics
        )

    def metrics(self, format: str = "prometheus") -> Any:
        """The run's metric exposition (``"prometheus"`` text or ``"json"``).

        Empty under ``obs="off"`` — the server never pays for metrics the
        deployment did not ask for.
        """
        if format == "prometheus":
            return self.obs.metrics.to_prometheus()
        if format == "json":
            return self.obs.metrics.to_json()
        raise ValueError(f"unknown metrics format {format!r}; use 'prometheus' or 'json'")
