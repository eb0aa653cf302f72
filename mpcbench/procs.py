"""Stop and reap every process a run started, on every way out of it.

The workloads close their exec pools themselves.  What outlives a pool is
multiprocessing's resource tracker: a helper process that the first
shared-memory segment starts, which only exits once every holder of its
pipe has exited, so it would outlive the run unreaped.  ``install()`` makes
this process the reaper of its orphaned descendants and registers
``stop_children()`` to run at exit; the entry point also calls it before it
prints a result.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time
from typing import Set

PR_SET_CHILD_SUBREAPER = 36
#: How long children get to exit on their own before they are killed.
GRACE_S = 5.0


def adopt_orphans() -> None:
    """Have orphaned descendants reparented to this process (Linux only)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> Set[int]:
    """PIDs of this process's children, zombies included."""
    me = os.getpid()
    pids: Set[int] = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.add(int(entry))
    return pids


def _stop_tracker() -> None:
    """Close this process's pipe to the resource tracker; the tracker exits."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        tracker._fd = tracker._pid = None
        os.close(fd)


def stop_children(grace_s: float = GRACE_S) -> Set[int]:
    """Stop every child and wait for each; returns the PIDs that had to be killed."""
    if "multiprocessing" in sys.modules:
        import multiprocessing

        for proc in multiprocessing.active_children():
            proc.terminate()
            proc.join(grace_s)
            if proc.is_alive():
                proc.kill()
                proc.join()
        _stop_tracker()
    killed: Set[int] = set()
    deadline = time.monotonic() + grace_s
    while True:
        pids = child_pids()
        if not pids:
            return killed
        late = time.monotonic() > deadline
        for pid in pids:
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if not done and late and pid not in killed:
                os.kill(pid, signal.SIGKILL)
                killed.add(pid)
        if late and time.monotonic() > deadline + grace_s:
            return killed  # only unreapable entries are left
        time.sleep(0.01)


def _exit_on_sigterm(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def install() -> None:
    """Adopt orphans, and stop every child at exit and on SIGTERM.

    Call before anything imports multiprocessing: exit handlers run in
    reverse order, so this one then runs after the library's own pool and
    shared-memory sweeps, which may still talk to the tracker.  SIGTERM
    becomes ``SystemExit`` so those handlers run; forked workers get the
    default action back, so the pool stops them exactly as before.
    """
    adopt_orphans()
    atexit.register(stop_children)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
