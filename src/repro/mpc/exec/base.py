"""Execution-backend interface and the inline (in-driver) backend.

The MPC substrate separates *accounting* from *execution*:
:class:`~repro.mpc.simulator.MPCSimulator` prices rounds and words — it is
the model oracle — while an :class:`ExecBackend` decides where the per-layer
DP batches of a full solve actually run.  Two backends:

* ``"inline"`` (:class:`InlineBackend`, the default) evaluates every batch
  in the driver process;
* ``"process"`` (:class:`~repro.mpc.exec.pool.ProcessBackend`) fans the
  per-layer DP batches out to a persistent ``multiprocessing`` worker pool.

The array treeops of the clustering (:mod:`repro.mpc.treeops_array`) always
run on the driver: the simulator charges their rounds the same wherever
their compute runs, and that compute is a negligible share of a solve.

The contract both backends must satisfy: identical outputs, labels and
:class:`~repro.mpc.simulator.RoundStats` for every pipeline — the substrate
equivalence suite runs under both.

The unit of work is a **DP session** (:meth:`ExecBackend.dp_session`): it
pins one solver and one clustering for the duration of one engine solve and
executes the per-layer summary/label batches.  Backends may return ``None``
to decline (the engine then runs the layer batches inline), which is also
the graceful fallback when a problem cannot be shipped to workers.
"""

from __future__ import annotations

import os
from typing import Any, Optional

__all__ = [
    "ExecBackendError",
    "ExecWorkerFailure",
    "ExecWorkerRaised",
    "ExecBackend",
    "InlineBackend",
    "INLINE",
    "resolve_backend",
    "default_workers",
]


class ExecBackendError(RuntimeError):
    """A process-backend worker failed and the supervision ladder (retry
    within the pool → rebuild the pool → inline fallback) is exhausted or
    was invoked outside a supervised session."""


class ExecWorkerFailure(ExecBackendError):
    """A worker died, went silent past the heartbeat window, or exceeded the
    call deadline: the pipe protocol is undefined, so the pool is torn down
    before this propagates (a retry rebuilds it)."""

    def __init__(self, message: str, *, slot: int, kind: str) -> None:
        super().__init__(message)
        self.slot = slot
        #: ``"died"`` | ``"hung"`` | ``"timeout"``.
        self.kind = kind


class ExecWorkerRaised(ExecBackendError):
    """A worker raised a Python exception and reported its traceback.  The
    worker is alive and every pending reply was drained, so the pool stays
    intact — a retry re-dispatches on the same workers."""

    def __init__(self, message: str, *, slot: int) -> None:
        super().__init__(message)
        self.slot = slot
        self.kind = "error"


class ExecBackend:
    """Where the DP layer batches of a full solve run (see module docstring)."""

    name: str = "abstract"

    def dp_session(self, clustering: Any, solver: Any, obs: Optional[Any] = None) -> Optional[Any]:
        """Open a DP session for one engine solve, or ``None`` to decline.

        ``clustering`` is the solve's
        :class:`~repro.clustering.model.HierarchicalClustering` with its
        compiled layer plan, which carries the degree reduction.

        ``obs`` is the deployment's :class:`~repro.obs.ObsContext` (or
        ``None``): backends that distribute work attribute per-call latency
        to it and, when tracing, adopt the spans their workers ship back.
        """
        return None

    def close(self) -> None:
        """Shut the backend down (workers). Idempotent."""


class InlineBackend(ExecBackend):
    """Everything runs in the driver process — the reference behaviour."""

    name = "inline"


#: Shared inline backend instance (stateless).
INLINE = InlineBackend()


def default_workers() -> int:
    """Default process-pool size: the visible core count, clamped to [2, 4]."""
    return max(2, min(4, os.cpu_count() or 1))


def resolve_backend(config: Any) -> ExecBackend:
    """The :class:`ExecBackend` selected by ``config.exec_backend``."""
    backend = getattr(config, "exec_backend", "inline")
    if backend != "process":
        return INLINE
    from repro.mpc.exec.pool import ProcessBackend

    workers = getattr(config, "exec_workers", None) or default_workers()
    return ProcessBackend.shared(
        workers,
        call_timeout=getattr(config, "exec_call_timeout", None),
        retries=getattr(config, "exec_retries", None),
        backoff=getattr(config, "exec_backoff", None),
        heartbeat=getattr(config, "exec_heartbeat", None),
        faults=getattr(config, "exec_faults", None),
    )
