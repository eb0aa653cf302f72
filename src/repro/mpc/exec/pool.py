"""Supervised multiprocessing worker pool — the ``"process"`` exec backend.

The pool holds ``W`` long-lived worker processes, each connected to the
driver by a duplex pipe.  A full solve ships the clustering once per pool
(``tree_state``), opens a DP session on every worker (``dp_open``) and then
fans each layer's batch out by cluster ownership (``cid % W``): new
summaries in, new summaries / labels out, over the pipes.  The driver
remains the synchronisation barrier: it charges rounds and words through
:class:`~repro.mpc.simulator.MPCSimulator` exactly as the inline backend
does, which is what keeps the two backends' `RoundStats` bit-identical.

Failure model — the supervision ladder.  Every session operation (a tree
state shipment, a session open, a DP layer batch) is *idempotent*: its
inputs live driver-side, so re-dispatching it cannot change a bit of the
result.  Supervision exploits that:

1. **Retry within the pool** — a worker that raises a Python exception
   reports its traceback and stays alive; the batch is re-dispatched on the
   same workers after an exponential backoff.
2. **Rebuild the pool** — a worker that dies (killed, OOM, segfault), goes
   silent past the heartbeat window, or exceeds the hard call deadline
   leaves the pipe protocol undefined; the pool is torn down, respawned,
   the session re-established (tree state and DP session re-shipped) and
   the batch re-dispatched.
3. **Inline fallback** — after ``retries`` failed attempts the session
   degrades, with a once-per-process :class:`RuntimeWarning`, to evaluating
   the remaining batches inline on the driver over the same layer plan —
   still bit-identical, just no longer parallel.

Liveness is heartbeat-based, not deadline-based: workers ack progress every
``heartbeat`` seconds while executing a command, so a hang is detected
after a few silent intervals (seconds) while a slow-but-alive worker can
run all the way to the generous hard ``call_timeout``.  Every ladder
transition is counted in the backend's
:class:`~repro.mpc.exec.faults.ExecHealth` report, and deterministic
failures can be injected with a :class:`~repro.mpc.exec.faults.FaultPlan`
(env ``REPRO_EXEC_FAULTS``): the driver attaches a fault directive to the
one matching message and the worker kills itself / hangs / delays / drops
the reply / raises at exactly that coordinate.

Lifetime: pools are process-global singletons keyed by every exec knob
(worker count, start method, timeouts, retry policy, fault plan), so
changing any of them mid-process yields a distinct pool instead of being
silently ignored.  A pool forks its workers lazily, at the first DP session
that needs them.  ``atexit`` stops every pool; workers are daemonic as a
backstop.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import signal
import threading
import time
import traceback
import warnings
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mpc.exec.base import (
    ExecBackend,
    ExecBackendError,
    ExecWorkerFailure,
    ExecWorkerRaised,
)
from repro.mpc.exec.faults import ExecHealth, FaultPlan, InjectedFault
from repro.obs import clock
from repro.obs.context import OBS_OFF
from repro.obs.dump import dump_file
from repro.obs.spans import worker_span

__all__ = ["ProcessBackend", "ProcessDPSession"]

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL

#: Supervision defaults (overridden per pool via MPCConfig / environment).
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.05
DEFAULT_HEARTBEAT = 0.25
DEFAULT_CALL_TIMEOUT = 300.0

#: Most recently shipped clusterings kept per worker (driver mirrors this).
_TREE_CACHE_SLOTS = 4


def _default_call_timeout() -> float:
    """The hard per-call deadline — read per pool build, never at import."""
    return float(os.environ.get("REPRO_EXEC_TIMEOUT", str(DEFAULT_CALL_TIMEOUT)))


def _hang_window(heartbeat: float) -> float:
    """Silence (no reply, no heartbeat) after which a worker counts as hung.

    Several intervals of slack absorb scheduler jitter; the floor keeps a
    tiny test heartbeat from false-killing workers on loaded CI runners.
    """
    return max(12.0 * heartbeat, 1.0)


# --------------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------------- #


def _build_solver(spec: Tuple[str, Any, Any]) -> Any:
    if spec[0] == "finite":
        from repro.dp.local_solver import FiniteStateClusterSolver

        return FiniteStateClusterSolver(spec[1], backend=spec[2])
    return spec[1]


def _worker_batch(
    clustering: Any,
    layer: int,
    rows: Any,
    summaries: Dict[int, Any],
    sizer: Any,
) -> Any:
    """The :class:`~repro.dp.kernels.plan.LayerBatch` of ``rows`` of ``layer``.

    The layer plans, with the degree reduction they were compiled against,
    travel with the shipped clustering (compiled on the driver before the
    first DP session), so this never recompiles them.
    """
    from repro.dp.kernels.plan import LayerBatch

    plan = clustering._dp_plan
    assert plan is not None, "the driver ships the clustering with its compiled plan"
    lp = plan.layers[layer]
    assert lp is not None
    return LayerBatch(plan, lp, np.asarray(rows, dtype=np.int64), summaries, sizer)


def _worker_main(
    conn: Any, slot: int, inherited: Sequence[Any], heartbeat: float
) -> None:  # pragma: no cover - runs in child
    """Command loop of one pool worker (see module docstring for protocol)."""
    # Fork inherits every pipe end created before this worker started; close
    # them so a dead driver reliably surfaces as EOF on our own pipe (a
    # sibling holding a copy of the driver end would otherwise keep it open
    # and orphan the pool).
    for other in inherited:
        if other is not conn:
            try:
                other.close()
            except Exception:
                pass
    parent = os.getppid()
    tree_states: Dict[Any, Any] = {}
    dp_sessions: Dict[Any, Dict[str, Any]] = {}

    # Liveness protocol: while `busy` (a command is executing) and not
    # `quiet` (an injected hang/drop suppresses liveness), a daemon thread
    # sends ("hb", None) every `heartbeat` seconds.  `send_lock` keeps
    # heartbeats and replies from interleaving mid-pickle on the pipe.
    send_lock = threading.Lock()
    busy = threading.Event()
    quiet = threading.Event()
    hb_stop = threading.Event()

    def _hb_loop() -> None:
        while not hb_stop.wait(heartbeat):
            if busy.is_set() and not quiet.is_set():
                try:
                    with send_lock:
                        conn.send(("hb", None))
                except Exception:
                    return

    threading.Thread(target=_hb_loop, daemon=True, name="repro-exec-hb").start()

    running = True
    while running:
        try:
            # Poll so a re-parented (orphaned) worker notices and exits even
            # if its pipe was leaked into another process.
            while not conn.poll(0.25):
                if os.getppid() != parent:
                    return
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        cmd, payload = msg[0], msg[1]
        fault = msg[2] if len(msg) > 2 else None
        want_spans = bool(msg[3]) if len(msg) > 3 else False
        kind = fault.get("kind") if fault else None
        drop_reply = False
        if kind == "kill":
            # Simulated SIGKILL mid-command: no reply, no cleanup.
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            # Go silent: no pickup ack, no heartbeats, just sleep.  The
            # driver's hang window fires long before the sleep ends and the
            # teardown SIGTERMs this process out of it.
            quiet.set()
            time.sleep(fault.get("duration", 20.0) if fault else 20.0)
            quiet.clear()
        elif kind == "drop":
            drop_reply = True
            quiet.set()
        if not quiet.is_set():
            # Pickup ack: resets the driver's silence clock immediately so
            # a tiny heartbeat interval cannot false-kill a worker that was
            # still in its idle poll when the command landed.
            try:
                with send_lock:
                    conn.send(("hb", None))
            except Exception:
                break
        busy.set()
        t_cmd = clock.now() if want_spans else 0.0
        try:
            if kind == "delay":
                # Slow-but-alive: heartbeats keep flowing, then the command
                # completes normally.  The driver must NOT kill this worker.
                time.sleep(fault.get("duration", 20.0) if fault else 20.0)
            result: Any = None
            if kind == "raise":
                raise InjectedFault(
                    f"injected fault on worker {slot} handling {cmd!r}"
                )
            if cmd == "tree_state":
                key, blob = payload
                tree_states[key] = pickle.loads(blob)
            elif cmd == "tree_drop":
                tree_states.pop(payload, None)
            elif cmd == "dp_open":
                skey, tree_key, solver_blob = payload
                dp_sessions[skey] = {
                    "solver": _build_solver(pickle.loads(solver_blob)),
                    "tree_key": tree_key,
                    "summaries": {},
                }
            elif cmd == "dp_solve":
                skey, layer, rows, extra_summaries, sizer = payload
                sess = dp_sessions[skey]
                summaries = sess["summaries"]
                summaries.update(extra_summaries)
                batch = _worker_batch(
                    tree_states[sess["tree_key"]], layer, rows, summaries, sizer
                )
                out, words = sess["solver"].summarize_layer(batch)
                summaries.update(zip(batch.cids, out))
                result = (out, words)
            elif cmd == "dp_labels":
                skey, layer, rows, outs, ins, extra_summaries, sizer = payload
                sess = dp_sessions[skey]
                sess["summaries"].update(extra_summaries)
                batch = _worker_batch(
                    tree_states[sess["tree_key"]], layer, rows, sess["summaries"], sizer
                )
                result = sess["solver"].label_layer(batch, outs, ins)
            elif cmd == "dp_close":
                dp_sessions.pop(payload, None)
            elif cmd == "ping":
                result = slot
            elif cmd == "stop":
                running = False
            else:
                raise ValueError(f"unknown pool command {cmd!r}")
            busy.clear()
            if not drop_reply:
                reply: Tuple[Any, ...] = ("ok", result)
                if want_spans:
                    # One span per command, shipped back on the reply; the
                    # driver re-bases it onto its own clock (rel=0 pins the
                    # span at the driver's send time) and re-parents it.
                    attrs: Dict[str, Any] = {"slot": slot}
                    if cmd in ("dp_solve", "dp_labels"):
                        attrs["n"] = len(payload[2])
                    span = worker_span(
                        f"worker.{cmd}", 0.0, clock.now() - t_cmd, **attrs
                    )
                    reply = ("ok", result, [span])
                try:
                    with send_lock:
                        conn.send(reply)
                except Exception:
                    break
        except BaseException:
            busy.clear()
            if drop_reply:
                continue
            try:
                with send_lock:
                    conn.send(("error", traceback.format_exc()))
            except Exception:
                break
    hb_stop.set()
    try:
        conn.close()
    except Exception:
        pass


# --------------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------------- #


class _Worker:
    """Driver handle on one pool worker: process + pipe + liveness checks."""

    def __init__(
        self,
        ctx: Any,
        slot: int,
        conn: Any,
        child_conn: Any,
        inherited: Sequence[Any],
        heartbeat: float,
        call_timeout: float,
    ) -> None:
        self.slot = slot
        self.conn = conn
        self.call_timeout = call_timeout
        self.hang_after = _hang_window(heartbeat)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, slot, inherited, heartbeat),
            daemon=True,
            name=f"repro-exec-{slot}",
        )
        self.proc.start()
        child_conn.close()

    def send(
        self,
        cmd: str,
        payload: Any,
        fault: Optional[Dict[str, Any]] = None,
        want_spans: bool = False,
    ) -> None:
        message: Tuple[Any, ...] = (
            (cmd, payload)
            if fault is None and not want_spans
            else (cmd, payload, fault, want_spans)
        )
        try:
            self.conn.send(message)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ExecWorkerFailure(
                f"exec worker {self.slot} (pid {self.proc.pid}) is gone: {exc}",
                slot=self.slot,
                kind="died",
            ) from exc

    def recv_reply(self) -> Tuple[str, Any, Any]:
        """The next ``("ok" | "error", result, spans)`` reply, heartbeat-aware.

        ``spans`` is the worker's piggybacked span-dict list when the command
        requested tracing, else ``None``.  Heartbeats — the pickup ack and
        the periodic progress acks a busy worker sends — reset the silence
        clock without satisfying the call; a worker silent for longer than
        the hang window counts as hung even though it is alive, and the hard
        ``call_timeout`` bounds the call even while heartbeats keep arriving.
        """
        start = clock.monotonic()
        deadline = start + self.call_timeout
        last_signal = start
        while True:
            if self.conn.poll(0.02):
                try:
                    msg = self.conn.recv()
                except (EOFError, OSError) as exc:
                    raise ExecWorkerFailure(
                        f"exec worker {self.slot} (pid {self.proc.pid}) closed its pipe",
                        slot=self.slot,
                        kind="died",
                    ) from exc
                if msg[0] == "hb":
                    last_signal = clock.monotonic()
                    continue
                return msg[0], msg[1], (msg[2] if len(msg) > 2 else None)
            now = clock.monotonic()
            if not self.proc.is_alive():
                raise ExecWorkerFailure(
                    f"exec worker {self.slot} (pid {self.proc.pid}) died "
                    f"mid-call (exitcode {self.proc.exitcode})",
                    slot=self.slot,
                    kind="died",
                )
            if now - last_signal > self.hang_after:
                raise ExecWorkerFailure(
                    f"exec worker {self.slot} (pid {self.proc.pid}) went silent: "
                    f"no heartbeat for {self.hang_after:.1f}s",
                    slot=self.slot,
                    kind="hung",
                )
            if now > deadline:
                raise ExecWorkerFailure(
                    f"exec worker {self.slot} (pid {self.proc.pid}) did not "
                    f"finish within the {self.call_timeout:.0f}s call deadline",
                    slot=self.slot,
                    kind="timeout",
                )

    def stop(self) -> None:
        try:
            self.conn.send(("stop", None))
        except Exception:
            pass
        self.proc.join(timeout=1.0)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.terminate()
            self.proc.join(timeout=1.0)
        try:
            self.conn.close()
        except Exception:
            pass


def _mp_context(start_method: Optional[str] = None) -> Any:
    import multiprocessing as mp

    method = start_method or os.environ.get("REPRO_EXEC_START_METHOD")
    if method:
        return mp.get_context(method)
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return mp.get_context("spawn")


_UNSHIPPABLE_WARNED: Set[str] = set()

_DEGRADE_WARNED = False


def _warn_inline_fallback(what: str, exc: BaseException) -> None:
    """Once per process: the supervision ladder ran out and went inline."""
    global _DEGRADE_WARNED
    if not _DEGRADE_WARNED:
        _DEGRADE_WARNED = True
        warnings.warn(
            f"exec supervision exhausted its retries for {what} ({exc}); "
            "continuing inline on the driver — results are bit-identical, "
            "only the placement changed",
            RuntimeWarning,
            stacklevel=4,
        )


#: Pool-cache key: every knob that changes pool behaviour.
_PoolKey = Tuple[int, str, float, int, float, float, str]


class ProcessBackend(ExecBackend):
    """The supervised ``"process"`` execution backend (see module docstring)."""

    name = "process"

    _shared: Dict[_PoolKey, "ProcessBackend"] = {}

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        call_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        heartbeat: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.num_slots = max(1, int(workers))
        self.start_method = start_method
        self.call_timeout = call_timeout if call_timeout is not None else _default_call_timeout()
        self.retries = DEFAULT_RETRIES if retries is None else max(0, int(retries))
        self.backoff = DEFAULT_BACKOFF if backoff is None else max(0.0, float(backoff))
        self.heartbeat = DEFAULT_HEARTBEAT if heartbeat is None else float(heartbeat)
        self.fault_plan = fault_plan
        #: The structured supervision report (one per backend lifetime).
        self.health = ExecHealth()
        self._workers: List[_Worker] = []
        self._generation = 0
        #: True between a failure teardown and the next rebuild (rebuild
        #: accounting: the *first* build of a pool is not a rebuild).
        self._dirty = False
        self._ever_built = False
        #: Supervised messages sent per slot — the FaultPlan coordinate
        #: space.  Driver-side and monotonic across rebuilds, so plans are
        #: deterministic and every entry fires exactly once.
        self._fault_calls: Dict[int, int] = {}
        #: Worker-side tree-state cache mirror: key -> None (ordered LRU).
        self._tree_mirror: "OrderedDict[Any, None]" = OrderedDict()
        self._live_tree_keys: set = set()
        self._session_ids = itertools.count()
        self._tree_tokens = itertools.count()

    @classmethod
    def shared(
        cls,
        workers: int,
        *,
        start_method: Optional[str] = None,
        call_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        heartbeat: Optional[float] = None,
        faults: Optional[str] = None,
    ) -> "ProcessBackend":
        """The process-global pool for this exact knob combination.

        Keyed by every behavioural knob — worker count, start method,
        timeouts, retry policy, heartbeat cadence and the fault-plan spec —
        so changing ``REPRO_EXEC_START_METHOD`` or any timeout mid-process
        yields a fresh pool instead of silently reusing a stale one.
        """
        method = start_method or os.environ.get("REPRO_EXEC_START_METHOD") or ""
        timeout = call_timeout if call_timeout is not None else _default_call_timeout()
        retries_v = DEFAULT_RETRIES if retries is None else max(0, int(retries))
        backoff_v = DEFAULT_BACKOFF if backoff is None else max(0.0, float(backoff))
        heartbeat_v = DEFAULT_HEARTBEAT if heartbeat is None else float(heartbeat)
        spec = faults or ""
        key: _PoolKey = (
            max(1, int(workers)),
            method,
            timeout,
            retries_v,
            backoff_v,
            heartbeat_v,
            spec,
        )
        backend = cls._shared.get(key)
        if backend is None:
            backend = cls._shared[key] = cls(
                workers,
                start_method=method or None,
                call_timeout=timeout,
                retries=retries_v,
                backoff=backoff_v,
                heartbeat=heartbeat_v,
                fault_plan=FaultPlan.parse(spec),
            )
        return backend

    # -- pool lifecycle ------------------------------------------------- #

    def _ensure_pool(self) -> List[_Worker]:
        if not self._workers:
            if self._dirty:
                self.health.record_rebuild("pool")
                self._dirty = False
            ctx = _mp_context(self.start_method)
            self._generation += 1
            self._tree_mirror.clear()
            self._live_tree_keys.clear()
            # All pipes are created before any fork so every child can close
            # the ends it inherited from its siblings (see _worker_main).
            pipes = [ctx.Pipe(duplex=True) for _ in range(self.num_slots)]
            # Spawned children inherit nothing; shipping the list would dup
            # the handles into them instead.
            fork = ctx.get_start_method() == "fork"
            inherited = [end for pair in pipes for end in pair] if fork else []
            self._workers = [
                _Worker(
                    ctx,
                    slot,
                    conn,
                    child_conn,
                    inherited,
                    self.heartbeat,
                    self.call_timeout,
                )
                for slot, (conn, child_conn) in enumerate(pipes)
            ]
            self._ever_built = True
        return self._workers

    def worker_pids(self) -> List[int]:
        """PIDs of the live pool (starts the pool if needed); for tests."""
        return [w.proc.pid for w in self._ensure_pool()]

    def _teardown(self) -> None:
        workers, self._workers = self._workers, []
        self._dirty = True
        for w in workers:
            try:
                w.proc.terminate()
            except Exception:
                pass
        for w in workers:
            try:
                w.proc.join(timeout=1.0)
            except Exception:
                pass
            try:
                w.conn.close()
            except Exception:
                pass
        self._tree_mirror.clear()
        self._live_tree_keys.clear()

    def close(self) -> None:
        workers, self._workers = self._workers, []
        for w in workers:
            w.stop()
        self._dirty = False
        self._tree_mirror.clear()
        self._live_tree_keys.clear()
        self._write_health_report()

    def _write_health_report(self) -> None:
        """Dump the ExecHealth report as JSON when REPRO_EXEC_HEALTH_DIR is set.

        One file per backend close; the CI chaos job uploads the directory
        as its artifact, so a surviving-but-degraded run is inspectable.

        Delegates naming to :func:`repro.obs.dump.dump_file` (shared with
        the ``REPRO_OBS_DIR`` trace/metric dumps): filenames carry the pid,
        the pool generation and a sequence number, writes are
        exclusive-create with collision retry — so several pipelines in one
        process, or a restarted server whose pid the OS reused, can never
        silently overwrite an earlier report — and the oldest reports beyond
        the GC cap are pruned.
        """
        out_dir = os.environ.get("REPRO_EXEC_HEALTH_DIR")
        if not out_dir or not self._ever_built:
            return
        dump_file(
            out_dir,
            f"exec-health-{os.getpid()}-g{self._generation}",
            ".json",
            "exec-health-",
            lambda path: self.health.write_json(path, exclusive=True),
        )

    # -- calls ----------------------------------------------------------- #

    def _next_fault(self, slot: int, cmd: str) -> Optional[Dict[str, Any]]:
        """Advance slot's call counter; the fault directive due now, if any."""
        n = self._fault_calls.get(slot, 0)
        self._fault_calls[slot] = n + 1
        if self.fault_plan is None:
            return None
        return self.fault_plan.take(slot, n, cmd)

    def _call_each(
        self,
        messages: Sequence[Optional[Tuple[str, Any]]],
        obs: Optional[Any] = None,
    ) -> List[Any]:
        """Send one message per worker (None = skip), then collect replies.

        Sends complete before any receive, so workers genuinely overlap.  A
        dead/hung worker tears the pool down and raises
        :class:`ExecWorkerFailure`; a worker-side exception drains every
        other reply first (the pipes stay protocol-clean), keeps the pool
        intact and raises :class:`ExecWorkerRaised`.  Callers that want the
        supervision ladder wrap this in :meth:`supervised`.

        ``obs`` (an enabled :class:`~repro.obs.ObsContext`) asks workers to
        time their command handling: durations land in the run's metrics,
        and in ``trace`` mode the worker spans are ingested re-based on this
        driver's send time and re-parented under the caller's current span.
        """
        workers = self._ensure_pool()
        want_spans = obs is not None and obs.enabled
        base = clock.now() if want_spans else 0.0
        try:
            active: List[_Worker] = []
            for worker, message in zip(workers, messages):
                if message is None:
                    continue
                worker.send(
                    message[0],
                    message[1],
                    self._next_fault(worker.slot, message[0]),
                    want_spans=want_spans,
                )
                active.append(worker)
            replies = [worker.recv_reply() for worker in active]
        except ExecWorkerFailure:
            self._teardown()
            raise
        for worker, (status, result, _spans) in zip(active, replies):
            if status == "error":
                raise ExecWorkerRaised(
                    f"exec worker {worker.slot} raised:\n{result}", slot=worker.slot
                )
        if want_spans:
            self._observe_workers(obs, active, replies, base)
        return [reply[1] for reply in replies]

    def _observe_workers(
        self,
        obs: Any,
        active: Sequence[_Worker],
        replies: Sequence[Tuple[str, Any, Any]],
        base: float,
    ) -> None:
        """Attribute the workers' piggybacked timings to the run's obs."""
        for worker, (_status, _result, spans) in zip(active, replies):
            if not spans:
                continue
            for sd in spans:
                cmd = str(sd.get("name", "worker")).rsplit(".", 1)[-1]
                obs.metrics.histogram(
                    "repro_exec_worker_seconds", cmd=cmd, slot=worker.slot
                ).observe(float(sd.get("duration", 0.0)))
            if obs.tracing:
                obs.recorder.ingest(spans, base=base)

    def _call_all(self, cmd: str, payload: Any) -> List[Any]:
        return self._call_each([(cmd, payload)] * len(self._ensure_pool()))

    def supervised(
        self,
        what: str,
        attempt: Callable[[], Any],
        reestablish: Optional[Callable[[], None]] = None,
    ) -> Any:
        """Run ``attempt`` under the retry/rebuild ladder.

        ``attempt`` must be safe to re-run from scratch (the calls are
        idempotent by construction) and should rebuild its messages each
        time; ``reestablish`` restores worker-side session state before a
        retry (re-ship tree state, re-open the DP session)
        and runs whether the pool survived (worker raised) or was rebuilt
        (worker died/hung).  Raises the last error once attempts are
        exhausted — callers then take the inline-fallback rung.
        """
        last: Optional[ExecBackendError] = None
        for i in range(self.retries + 1):
            if i:
                self.health.record_retry(what, i)
                delay = self.backoff * (2 ** (i - 1))
                if delay > 0:
                    time.sleep(delay)
                if reestablish is not None:
                    try:
                        reestablish()
                    except ExecBackendError as exc:
                        self._record_failure(what, exc, i)
                        last = exc
                        continue
            try:
                return attempt()
            except ExecBackendError as exc:
                self._record_failure(what, exc, i)
                last = exc
        assert last is not None
        raise last

    def _record_failure(self, what: str, exc: ExecBackendError, attempt: int) -> None:
        self.health.record_failure(
            what,
            getattr(exc, "kind", "error"),
            getattr(exc, "slot", None),
            attempt,
            str(exc),
        )

    def register_health_gauges(self, obs: Any) -> None:
        """Pull-style gauges over the supervision-ladder counters.

        Evaluated at metrics-snapshot time, so a scrape always sees the
        current retry/rebuild/fallback totals without any hot-path hook.
        """
        health = self.health
        for stat in ("retries", "rebuilds", "inline_fallbacks"):
            obs.metrics.gauge_fn(
                "repro_exec_health",
                lambda s=stat: float(getattr(health, s)),
                stat=stat,
            )

    # -- DP sessions ------------------------------------------------------ #

    def _solver_spec(self, solver: Any) -> Tuple[str, Any, Any]:
        from repro.dp.local_solver import FiniteStateClusterSolver

        if isinstance(solver, FiniteStateClusterSolver):
            return ("finite", solver.problem, solver.backend)
        return ("raw", solver, None)

    def _tree_key(self, hc: Any) -> Any:
        """Worker-cache key of a clustering: pool generation, clustering
        token and payload epoch, so a payload write ships a fresh copy."""
        token = getattr(hc, "_exec_token", None)
        if token is None:
            token = next(self._tree_tokens)
            try:
                hc._exec_token = token
            except Exception:  # pragma: no cover - slotted clustering
                token = id(hc)
        return (self._generation, token, hc.payload_epoch)

    def _ship_tree_state(self, clustering: Any) -> Any:
        key = self._tree_key(clustering)
        if key in self._tree_mirror:
            self._tree_mirror.move_to_end(key)
            return key
        while len(self._tree_mirror) >= _TREE_CACHE_SLOTS:
            stale = next(
                (k for k in self._tree_mirror if k not in self._live_tree_keys), None
            )
            if stale is None:  # pragma: no cover - all slots pinned
                break
            del self._tree_mirror[stale]
            self._call_all("tree_drop", stale)
        blob = pickle.dumps(clustering, protocol=_PICKLE_PROTO)
        self._call_all("tree_state", (key, blob))
        self._tree_mirror[key] = None
        return key

    def dp_session(
        self, clustering: Any, solver: Any, obs: Optional[Any] = None
    ) -> Optional["ProcessDPSession"]:
        """Open a :class:`ProcessDPSession`, or ``None`` for inline layers.

        Two graceful declines: a solver/problem that cannot be pickled
        (e.g. defined in a local scope) and a pool whose supervision ladder
        exhausted during the open — both degrade to inline layer execution
        with a one-time :class:`RuntimeWarning`; results are identical
        either way.
        """
        spec = self._solver_spec(solver)
        try:
            solver_blob = pickle.dumps(spec, protocol=_PICKLE_PROTO)
        except Exception as exc:
            tag = type(getattr(solver, "problem", solver)).__name__
            if tag not in _UNSHIPPABLE_WARNED:
                _UNSHIPPABLE_WARNED.add(tag)
                warnings.warn(
                    f"DP problem {tag} cannot be shipped to exec workers "
                    f"({exc!r}); running its layer batches inline",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return None
        skey = next(self._session_ids)

        def _open() -> Any:
            self._ensure_pool()
            tree_key = self._ship_tree_state(clustering)
            self._call_all("dp_open", (skey, tree_key, solver_blob))
            return tree_key

        try:
            tree_key = self.supervised(f"dp_open:{skey}", _open)
        except ExecBackendError as exc:
            self.health.record_inline_fallback(f"dp_open:{skey}")
            _warn_inline_fallback(f"DP session open ({skey})", exc)
            return None
        self._live_tree_keys.add(tree_key)
        return ProcessDPSession(self, skey, tree_key, clustering, solver, solver_blob, obs)


class ProcessDPSession:
    """Per-solve DP session: layer batches fanned out by cluster ownership.

    A cluster is owned by worker ``cid % slots`` for the whole solve, so the
    worker that summarised a cluster bottom-up also labels it top-down (its
    solver's backpointers are local).  Each slot receives its clusters as a
    row selection of the layer plan the shipped clustering carries, so no
    batch recompiles anything.  Summaries a worker needs but does not own
    are shipped as deltas with the batch — the driver keeps the complete
    summary map, which is also what makes supervision sound: after a pool
    rebuild the session re-opens on fresh workers, the ``_known`` delta
    bookkeeping resets, and the next batch ships everything the new workers
    need; the label phase re-solves the rows a respawned worker lost.
    When the ladder is exhausted the session degrades to evaluating batches
    inline on the driver over the same plan — bit-identical.
    """

    def __init__(
        self,
        backend: ProcessBackend,
        skey: Any,
        tree_key: Any,
        clustering: Any,
        solver: Any,
        solver_blob: bytes,
        obs: Optional[Any] = None,
    ) -> None:
        self.backend = backend
        self.skey = skey
        self.tree_key = tree_key
        self.clustering = clustering
        self.solver = solver
        self._solver_blob = solver_blob
        self.obs = obs if obs is not None else OBS_OFF
        if self.obs.enabled:
            backend.register_health_gauges(self.obs)
        self._known: List[Set[int]] = [set() for _ in range(backend.num_slots)]
        self._degraded = False
        self._closed = False

    def _reestablish(self) -> None:
        """Restore worker-side session state before a retry.

        Unconditional: re-ships the tree state (a no-op when the pool
        survived and still mirrors it), re-opens the DP session (resetting
        the workers' summary maps) and clears the delta bookkeeping so the
        retried batch ships every summary the workers need.
        """
        backend = self.backend
        backend._ensure_pool()
        backend._live_tree_keys.discard(self.tree_key)
        self.tree_key = backend._ship_tree_state(self.clustering)
        backend._live_tree_keys.add(self.tree_key)
        backend._call_all("dp_open", (self.skey, self.tree_key, self._solver_blob))
        self._known = [set() for _ in range(backend.num_slots)]

    def _slot_batches(self, batch: Any) -> List[Tuple[int, Any]]:
        """``(slot, sub-batch)`` per slot owning some of ``batch``'s clusters."""
        slots = self.backend.num_slots
        owner = batch.layer.cids[batch.rows] % slots
        out: List[Tuple[int, Any]] = []
        for slot in range(slots):
            rows = batch.rows[owner == slot]
            if len(rows):
                out.append((slot, batch.select(rows)))
        return out

    def _summary_extras(self, slot: int, sub: Any) -> Dict[int, Any]:
        """Child-cluster summaries ``slot`` needs for ``sub`` but lacks."""
        known = self._known[slot]
        summaries = sub.summaries
        extra: Dict[int, Any] = {}
        for cid in sub.sub_clusters():
            if cid not in known:
                extra[cid] = summaries[cid]
        known.update(extra)
        return extra

    def _messages(
        self, parts: List[Tuple[int, Any]], make: Callable[[int, Any], Tuple[str, Any]]
    ) -> List[Optional[Tuple[str, Any]]]:
        messages: List[Optional[Tuple[str, Any]]] = [None] * self.backend.num_slots
        for slot, sub in parts:
            messages[slot] = make(slot, sub)
        return messages

    def solve_layer(self, batch: Any) -> Tuple[List[Any], int]:
        """Summaries of one layer batch (row order) and their routed words."""
        if self._degraded:
            out: Tuple[List[Any], int] = self.solver.summarize_layer(batch)
            return out
        obs = self.obs
        layer = batch.layer.layer

        def _attempt() -> Tuple[List[Any], int]:
            parts = self._slot_batches(batch)

            def make(slot: int, sub: Any) -> Tuple[str, Any]:
                extra = self._summary_extras(slot, sub)
                self._known[slot].update(sub.cids)
                return ("dp_solve", (self.skey, layer, sub.rows, extra, sub.sizer))

            messages = self._messages(parts, make)
            with obs.trace("exec.dp_solve", clusters=len(batch)):
                replies = self.backend._call_each(messages, obs=obs)
            by_cid: Dict[int, Any] = {}
            words = 0
            for (_slot, sub), (summaries, w) in zip(parts, replies):
                by_cid.update(zip(sub.cids, summaries))
                words += w
            return [by_cid[cid] for cid in batch.cids], words

        t0 = clock.now() if obs.enabled else 0.0
        try:
            result: Tuple[List[Any], int] = self.backend.supervised(
                f"dp_solve:{self.skey}", _attempt, self._reestablish
            )
        except ExecBackendError as exc:
            self._degrade(f"dp_solve:{self.skey}", exc)
            result = self.solver.summarize_layer(batch)
            return result
        if obs.enabled:
            obs.metrics.histogram("repro_exec_call_seconds", cmd="dp_solve").observe(
                clock.now() - t0
            )
        return result

    def label_layer(
        self, batch: Any, out_labels: Sequence[Any], in_labels: Sequence[Any]
    ) -> Tuple[List[Any], int]:
        """Labels of one layer batch's internal edges (``batch.edges`` order).

        Each cluster is labelled on its owning worker.  Summary deltas ride
        along exactly like the solve phase's, so a worker respawned after
        the bottom-up pass can re-solve the backpointers it lost.
        """
        if self._degraded:
            out: Tuple[List[Any], int] = self.solver.label_layer(batch, out_labels, in_labels)
            return out
        obs = self.obs
        layer = batch.layer.layer
        row_pos = {int(r): i for i, r in enumerate(batch.rows.tolist())}

        def _attempt() -> Tuple[List[Any], int]:
            parts = self._slot_batches(batch)

            def make(slot: int, sub: Any) -> Tuple[str, Any]:
                pos = [row_pos[r] for r in sub.rows.tolist()]
                outs = [out_labels[i] for i in pos]
                ins = [in_labels[i] for i in pos]
                extra = self._summary_extras(slot, sub)
                return ("dp_labels", (self.skey, layer, sub.rows, outs, ins, extra, sub.sizer))

            messages = self._messages(parts, make)
            with obs.trace("exec.dp_labels", clusters=len(batch)):
                replies = self.backend._call_each(messages, obs=obs)
            # Reassemble the slots' labels in the batch's edge order.
            placed = [batch.edge_positions(sub) for _slot, sub in parts]
            labels: List[Any] = [None] * sum(len(at) for at in placed)
            words = 0
            for at, (slot_labels, w) in zip(placed, replies):
                for i, lab in zip(at.tolist(), slot_labels):
                    labels[i] = lab
                words += w
            return labels, words

        t0 = clock.now() if obs.enabled else 0.0
        try:
            result: Tuple[List[Any], int] = self.backend.supervised(
                f"dp_labels:{self.skey}", _attempt, self._reestablish
            )
        except ExecBackendError as exc:
            self._degrade(f"dp_labels:{self.skey}", exc)
            result = self.solver.label_layer(batch, out_labels, in_labels)
            return result
        if obs.enabled:
            obs.metrics.histogram("repro_exec_call_seconds", cmd="dp_labels").observe(
                clock.now() - t0
            )
        return result

    def _degrade(self, what: str, exc: ExecBackendError) -> None:
        self._degraded = True
        self.backend.health.record_inline_fallback(what)
        _warn_inline_fallback(f"DP session {what}", exc)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.backend._live_tree_keys.discard(self.tree_key)
        if self.backend._workers:
            try:
                self.backend._call_all("dp_close", self.skey)
            except ExecBackendError:
                pass


@atexit.register
def _shutdown_pools() -> None:  # pragma: no cover - interpreter exit
    for backend in list(ProcessBackend._shared.values()):
        backend.close()
