"""Pluggable execution backends for the MPC substrate.

``MPCConfig.exec_backend`` selects where the per-layer DP batches of a full
solve run: ``"inline"`` (in-process, the default and reference) or
``"process"`` (a persistent multiprocessing pool that owns the clusters
``cid % workers``).  Accounting always stays with
:class:`~repro.mpc.simulator.MPCSimulator`; the backends must be — and are
tested to be — bit-identical in outputs, labels and
:class:`~repro.mpc.simulator.RoundStats`.

The process pool is *supervised*: worker failures (death, hang past the
heartbeat window, a raised exception) are retried with exponential backoff,
rebuilding the pool when the pipe protocol is gone, and degrade to a
warn-once inline fallback when the ladder is exhausted — all without
changing a bit of the result.  :mod:`repro.mpc.exec.faults` holds the
deterministic fault-injection plan (:class:`FaultPlan`) and the structured
:class:`ExecHealth` report of the transitions taken.

See :mod:`repro.mpc.exec.base` for the interface and
:mod:`repro.mpc.exec.pool` for the process pool.
"""

from repro.mpc.exec.base import (
    INLINE,
    ExecBackend,
    ExecBackendError,
    ExecWorkerFailure,
    ExecWorkerRaised,
    InlineBackend,
    default_workers,
    resolve_backend,
)
from repro.mpc.exec.faults import ExecHealth, FaultPlan, InjectedFault

__all__ = [
    "ExecBackend",
    "ExecBackendError",
    "ExecWorkerFailure",
    "ExecWorkerRaised",
    "ExecHealth",
    "FaultPlan",
    "InjectedFault",
    "InlineBackend",
    "INLINE",
    "resolve_backend",
    "default_workers",
]
