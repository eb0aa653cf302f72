"""Configuration of the simulated MPC deployment.

The paper's parameters are ``n`` (input size in words) and ``delta`` with
``0 < delta < 1``: each machine has ``Theta(n^delta)`` words of local memory
and there are ``Theta(n^(1-delta))`` machines.  For small test inputs the
asymptotic constants matter, so the configuration exposes explicit capacity
and machine-count floors; strictness of capacity enforcement is configurable
(record violations vs. raise).
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["MPCConfig"]


@dataclass
class MPCConfig:
    """Parameters of a simulated MPC deployment.

    Parameters
    ----------
    n:
        Nominal input size (number of words / records the deployment is sized
        for).  Machine memory and machine count are derived from it.
    delta:
        The memory exponent: machines hold ``capacity_factor * n**delta``
        words.  Must satisfy ``0 < delta < 1``.
    capacity_factor:
        Constant in front of ``n**delta``; the paper's Theta() hides it.
    min_capacity:
        Lower bound on machine capacity so that tiny test inputs still have a
        few dozen words of room per machine.
    min_machines:
        Lower bound on the number of machines (keeps the simulation genuinely
        distributed even for small ``n``).
    strict_memory:
        If ``True``, exceeding a machine's capacity raises
        :class:`MemoryError`; otherwise violations are only recorded in the
        simulator statistics.
    strict_bandwidth:
        If ``True``, a machine sending or receiving more than its capacity in
        one round raises; otherwise violations are recorded.
    dp_backend:
        Default local-solve backend for finite-state DP problems:
        ``"auto"`` (vectorized NumPy kernels whenever the problem is
        eligible, scalar fallback otherwise), ``"numpy"`` or ``"python"``.
        See :mod:`repro.dp.kernels`.
    accounting:
        Word-accounting mode for memory/bandwidth statistics:
        ``"fast"`` (default) uses the structural sizer of
        :mod:`repro.mpc.words` (O(1) fast paths for homogeneous scalar sets,
        cached ``__mpc_words__`` sizes honoured), ``"exact"`` uses the
        recursive reference walker.  Fast and exact observe identical peaks
        on every payload the substrate ships — the equivalence test-suite
        asserts it.
    treeops_backend:
        Implementation of the distributed tree subroutines
        (:mod:`repro.mpc.treeops`): ``"array"`` (default) runs the vectorized
        integer-array backend, which computes bit-identical outputs and
        charges bit-identical rounds while evaluating the supersteps on the
        driver; ``"records"`` runs the record-level reference path on the
        simulated machines.  Only the ``"records"`` path feeds mid-flight
        per-machine loads into the peak-memory statistics (the array path's
        state is driver-side and observes none), so capacity studies should
        use it.
    exec_backend:
        Where the DP engine's per-layer batches of a full solve run (see
        :mod:`repro.mpc.exec`): ``"inline"`` evaluates everything in the
        driver process (the default and the reference behaviour);
        ``"process"`` fans the batches out to a persistent
        ``multiprocessing`` worker pool, each worker owning the clusters
        ``cid % exec_workers``.  The tree subroutines of the clustering run
        on the driver under both.  Both backends produce bit-identical
        values, labels and :class:`~repro.mpc.simulator.RoundStats` — the
        simulator stays the accounting oracle either way.  Left ``None``,
        the value is read from the ``REPRO_EXEC_BACKEND`` environment
        variable (default ``"inline"``).
    exec_workers:
        Worker count of the ``"process"`` pool.  Left ``None``, the value
        is read from ``REPRO_EXEC_WORKERS``, else the visible CPU core
        count clamped to [2, 4] is used.  Ignored by the inline backend.
    exec_retries:
        Supervision ladder of the ``"process"`` pool: how many times a
        failed session open or DP layer batch is re-dispatched (after a
        backoff and, for a dead or hung worker, a pool rebuild) before the
        session degrades to a warn-once inline fallback.  The calls are
        idempotent — their inputs live driver-side — so retries cannot
        change a bit of the result.  Left ``None``, read
        from ``REPRO_EXEC_RETRIES`` (default 2).  ``0`` disables retries:
        the first failure falls through the ladder.
    exec_backoff:
        Base of the exponential backoff between retry attempts, in seconds
        (attempt ``k`` sleeps ``exec_backoff * 2**(k-1)``).  Left ``None``,
        read from ``REPRO_EXEC_BACKOFF`` (default 0.05).
    exec_heartbeat:
        Heartbeat interval of pool workers, in seconds.  A worker acks
        progress on long calls at this cadence; the driver declares a
        worker hung only after a silence of several intervals, so hangs
        are detected in seconds without false-killing slow-but-alive
        workers.  Left ``None``, read from ``REPRO_EXEC_HEARTBEAT``
        (default 0.25).
    exec_call_timeout:
        Hard per-call deadline in seconds for pool workers — the upper
        bound even while heartbeats keep arriving.  Left ``None``, read
        from ``REPRO_EXEC_TIMEOUT`` (default 300).  Per-pool, not
        process-global: pools are cached keyed by every exec knob, so
        changing the timeout (or the start method) mid-process takes
        effect instead of being silently ignored.
    exec_faults:
        Deterministic fault-injection plan for the process pool (chaos
        testing): a ``repro.mpc.exec.faults.FaultPlan`` spec string such as
        ``"kill@w0:2;poison@*:1:dp_solve"``.  Left ``None``, read from
        ``REPRO_EXEC_FAULTS`` (default: no faults).  Parsed and validated
        here so a typo fails fast.
    obs:
        Observability mode (see :mod:`repro.obs`): ``"off"`` (the default)
        reduces every tracing/metrics hook in the tree to a single no-op
        attribute check; ``"metrics"`` collects counters, gauges and
        latency histograms; ``"trace"`` additionally records nested spans
        (including exec-worker spans shipped back over the pool protocol)
        and the per-superstep round timeline.  Observability never changes
        a value, a label or a ``RoundStats`` field — it only watches.
        Left ``None``, read from ``REPRO_OBS`` (default ``"off"``).
    """

    n: int
    delta: float = 0.5
    capacity_factor: float = 4.0
    min_capacity: int = 64
    min_machines: int = 4
    strict_memory: bool = False
    strict_bandwidth: bool = False
    dp_backend: str = "auto"
    accounting: str = "fast"
    treeops_backend: str = "array"
    exec_backend: Optional[str] = None
    exec_workers: Optional[int] = None
    exec_retries: Optional[int] = None
    exec_backoff: Optional[float] = None
    exec_heartbeat: Optional[float] = None
    exec_call_timeout: Optional[float] = None
    exec_faults: Optional[str] = None
    obs: Optional[str] = None

    machine_capacity: int = field(init=False)
    num_machines: int = field(init=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"n must be positive, got {self.n}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.dp_backend not in ("auto", "numpy", "python"):
            raise ValueError(
                f"dp_backend must be 'auto', 'numpy' or 'python', got {self.dp_backend!r}"
            )
        if self.accounting not in ("exact", "fast"):
            raise ValueError(f"accounting must be 'exact' or 'fast', got {self.accounting!r}")
        if self.treeops_backend not in ("array", "records"):
            raise ValueError(
                f"treeops_backend must be 'array' or 'records', got {self.treeops_backend!r}"
            )
        if self.exec_backend is None:
            self.exec_backend = os.environ.get("REPRO_EXEC_BACKEND") or "inline"
        if self.exec_backend not in ("inline", "process"):
            raise ValueError(
                f"exec_backend must be 'inline' or 'process', got {self.exec_backend!r}"
            )
        if self.exec_workers is None:
            env_workers = os.environ.get("REPRO_EXEC_WORKERS")
            if env_workers:
                self.exec_workers = int(env_workers)
        if self.exec_workers is not None and self.exec_workers < 1:
            raise ValueError(f"exec_workers must be >= 1, got {self.exec_workers}")
        if self.exec_retries is None:
            env_retries = os.environ.get("REPRO_EXEC_RETRIES")
            if env_retries:
                self.exec_retries = int(env_retries)
        if self.exec_retries is not None and self.exec_retries < 0:
            raise ValueError(f"exec_retries must be >= 0, got {self.exec_retries}")
        if self.exec_backoff is None:
            env_backoff = os.environ.get("REPRO_EXEC_BACKOFF")
            if env_backoff:
                self.exec_backoff = float(env_backoff)
        if self.exec_backoff is not None and self.exec_backoff < 0:
            raise ValueError(f"exec_backoff must be >= 0, got {self.exec_backoff}")
        if self.exec_heartbeat is None:
            env_heartbeat = os.environ.get("REPRO_EXEC_HEARTBEAT")
            if env_heartbeat:
                self.exec_heartbeat = float(env_heartbeat)
        if self.exec_heartbeat is not None and self.exec_heartbeat <= 0:
            raise ValueError(f"exec_heartbeat must be > 0, got {self.exec_heartbeat}")
        if self.exec_call_timeout is None:
            env_timeout = os.environ.get("REPRO_EXEC_TIMEOUT")
            if env_timeout:
                self.exec_call_timeout = float(env_timeout)
        if self.exec_call_timeout is not None and self.exec_call_timeout <= 0:
            raise ValueError(
                f"exec_call_timeout must be > 0, got {self.exec_call_timeout}"
            )
        if self.exec_faults is None:
            self.exec_faults = os.environ.get("REPRO_EXEC_FAULTS")
        if self.exec_faults:
            from repro.mpc.exec.faults import FaultPlan

            FaultPlan.parse(self.exec_faults)  # validates; raises ValueError on typos
        if self.obs is None:
            self.obs = os.environ.get("REPRO_OBS") or "off"
        if self.obs not in ("off", "metrics", "trace"):
            raise ValueError(
                f"obs must be 'off', 'metrics' or 'trace', got {self.obs!r}"
            )
        cap = int(math.ceil(self.capacity_factor * self.n ** self.delta))
        self.machine_capacity = max(self.min_capacity, cap)
        machines = int(math.ceil(self.n / max(1, self.machine_capacity))) + 1
        self.num_machines = max(self.min_machines, machines)

    @property
    def local_memory_words(self) -> int:
        """Alias for :attr:`machine_capacity` (words per machine)."""
        return self.machine_capacity

    @property
    def total_memory_words(self) -> int:
        """Total memory across all machines (words)."""
        return self.machine_capacity * self.num_machines

    def cluster_capacity(self) -> int:
        """The cluster size cap ``n^delta`` used by the hierarchical clustering.

        The clustering construction (Section 4.2) works with the threshold
        ``n^(delta/2)`` for *uncolored* nodes so that clusters of at most
        ``n^delta`` total nodes result.  We return the full ``n^delta`` cap
        here (subject to the same constant and floor as machine capacity,
        since a cluster must fit in one machine).
        """
        return self.machine_capacity

    def light_threshold(self) -> int:
        """The ``n^(delta/2)`` threshold separating light from heavy nodes."""
        thr = int(math.ceil(self.capacity_factor * self.n ** (self.delta / 2.0)))
        return max(4, min(thr, self.machine_capacity))

    def scaled(self, n: int) -> "MPCConfig":
        """Return a copy of this configuration re-sized for input size ``n``.

        ``dataclasses.replace`` carries every init field over (so new
        configuration knobs cannot be silently dropped) and re-runs
        ``__post_init__`` to re-derive the capacity and machine count.
        """
        return dataclasses.replace(self, n=n)
