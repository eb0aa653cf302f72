"""Deterministic fault injection and supervision health for the exec layer.

Two pieces live here, both stdlib-only (workers may import this module):

* :class:`FaultPlan` — a replayable script of failures to inject into the
  process execution backend.  The *driver* owns the plan: it counts the
  supervised calls it sends to each worker slot and, when a call matches a
  planned coordinate, ships a fault directive with that one message (the
  worker then kills itself, hangs, delays, drops its reply, or raises).
  Driver-side injection is what makes plans deterministic across pool
  rebuilds — a respawned worker carries no counter to reset — and what
  makes every entry fire exactly once.  Plans parse from a compact spec
  grammar (env ``REPRO_EXEC_FAULTS`` / ``MPCConfig.exec_faults``) and
  serialize back to it, so a failing chaos run is reproducible from one
  string.

* :class:`ExecHealth` — the structured report of the supervision ladder:
  every retry, pool rebuild and inline fallback is counted and recorded as
  an event, so a solve that survived faults can state exactly which rungs
  it took (surfaced via ``PreparedTree.exec_health()`` and the chaos CI
  artifacts).

Spec grammar (entries joined with ``;``)::

    kind@w<slot>:<call>[:<cmd>][:key=value...]   worker fault
    kind@*:<call>[:<cmd>][:key=value...]         any worker (first to match)
    kind@<site>:<ordinal>                        driver-side site fault

``kind`` is one of ``kill`` (SIGKILL self), ``hang`` (go silent: suppress
heartbeats and sleep), ``delay`` (sleep but keep heartbeating — must *not*
be killed), ``drop`` (swallow the reply and go silent) or ``raise``/
``poison`` (raise :class:`InjectedFault` while handling the command).
``call`` is the 0-based ordinal of supervised messages the driver has sent
to that slot; ``cmd`` optionally restricts the match to one protocol
command (``tree_state``, ``dp_open``, ``dp_solve``, ``dp_labels``, ...).
On a fresh pool a slot's call 0 is ``tree_state``, call 1 ``dp_open`` and
call 2 the first ``dp_solve`` batch, so ``raise@*:1:dp_open`` is a failed
session open and ``poison@*:2:dp_solve`` a poisoned DP batch.  A ``cmd``
that no call at that ordinal carries never fires.  Site faults fire in driver-side code that calls
:meth:`FaultPlan.check_site` (the incremental update path uses the
``update-layer`` site to poison an update batch mid-pass).
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["InjectedFault", "FaultSpec", "FaultPlan", "ExecHealth"]

#: Worker-side fault kinds a directive may carry.
FAULT_KINDS = ("kill", "hang", "delay", "drop", "raise")

#: Accepted spelling aliases in specs.
_KIND_ALIASES = {"poison": "raise"}

#: Seconds slept by hang/delay directives unless the spec overrides it.
_DEFAULT_DURATION = 20.0


class InjectedFault(RuntimeError):
    """Raised by an injected ``raise``/``poison`` fault (never by real code)."""


@dataclass
class FaultSpec:
    """One planned fault at a (worker | site, call) coordinate."""

    kind: str
    call: int
    worker: Optional[int] = None  # None = any worker (worker faults only)
    cmd: Optional[str] = None
    site: Optional[str] = None  # set for driver-side site faults
    duration: float = _DEFAULT_DURATION

    def __post_init__(self) -> None:
        self.kind = _KIND_ALIASES.get(self.kind, self.kind)
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS} (or 'poison'), got {self.kind!r}"
            )
        if self.call < 0:
            raise ValueError(f"fault call ordinal must be >= 0, got {self.call}")
        if self.site is not None and self.kind != "raise":
            raise ValueError(
                f"site faults can only raise; got kind {self.kind!r} at site {self.site!r}"
            )

    def directive(self) -> Dict[str, Any]:
        """The payload shipped to the worker alongside the matched message."""
        return {"kind": self.kind, "duration": self.duration}

    def to_spec(self) -> str:
        if self.site is not None:
            return f"{self.kind}@{self.site}:{self.call}"
        where = "*" if self.worker is None else f"w{self.worker}"
        parts = [f"{self.kind}@{where}:{self.call}"]
        if self.cmd is not None:
            parts.append(self.cmd)
        if self.kind in ("hang", "delay") and self.duration != _DEFAULT_DURATION:
            parts.append(f"duration={self.duration:g}")
        return ":".join(parts)


def _parse_entry(entry: str) -> FaultSpec:
    head, _, rest = entry.partition("@")
    kind = head.strip()
    if not rest:
        raise ValueError(f"fault entry {entry!r} is missing '@where:call'")
    tokens = [t.strip() for t in rest.split(":")]
    if len(tokens) < 2:
        raise ValueError(f"fault entry {entry!r} is missing its call ordinal")
    where, call_tok = tokens[0], tokens[1]
    opts: Dict[str, str] = {}
    cmd: Optional[str] = None
    for tok in tokens[2:]:
        if "=" in tok:
            key, _, value = tok.partition("=")
            opts[key.strip()] = value.strip()
        elif cmd is None:
            cmd = tok
        else:
            raise ValueError(f"fault entry {entry!r} has two command tokens")
    try:
        call = int(call_tok)
    except ValueError as exc:
        raise ValueError(f"fault entry {entry!r}: call must be an integer") from exc
    duration = float(opts.pop("duration", _DEFAULT_DURATION))
    if opts:
        raise ValueError(f"fault entry {entry!r}: unknown options {sorted(opts)}")
    if where == "*":
        return FaultSpec(kind=kind, call=call, worker=None, cmd=cmd, duration=duration)
    if where.startswith("w") and where[1:].isdigit():
        return FaultSpec(kind=kind, call=call, worker=int(where[1:]), cmd=cmd, duration=duration)
    if cmd is not None:
        raise ValueError(f"fault entry {entry!r}: site faults take no command token")
    return FaultSpec(kind=kind, call=call, site=where, duration=duration)


class FaultPlan:
    """A consumable, replayable list of :class:`FaultSpec` entries.

    Matching mutates the plan (each entry fires once); :meth:`to_spec`
    serializes the *remaining* entries, :attr:`spec` keeps the original
    string for replay and pool-cache keying.  Thread-safe: the driver is
    single-threaded today, but a lock keeps the consume-once guarantee
    independent of that.
    """

    def __init__(self, entries: List[FaultSpec], spec: Optional[str] = None) -> None:
        self._entries = list(entries)
        self._lock = threading.Lock()
        self._site_calls: Dict[str, int] = {}
        self.spec = spec if spec is not None else ";".join(e.to_spec() for e in entries)

    # -- construction ----------------------------------------------------- #

    @classmethod
    def parse(cls, spec: str) -> Optional["FaultPlan"]:
        """Parse a spec string; empty/whitespace means no plan (``None``)."""
        entries = [_parse_entry(e) for e in spec.split(";") if e.strip()]
        if not entries:
            return None
        return cls(entries, spec=spec)

    @classmethod
    def seeded(
        cls,
        seed: int,
        count: int = 2,
        kinds: Tuple[str, ...] = ("kill", "hang", "raise"),
        max_call: int = 8,
    ) -> "FaultPlan":
        """A deterministic random plan: ``count`` faults in the first
        ``max_call`` supervised calls of any worker.  Same seed, same plan —
        the chaos CI matrix and the replay test both lean on this."""
        rng = random.Random(seed)
        entries = [
            FaultSpec(kind=rng.choice(kinds), call=rng.randrange(max_call), duration=20.0)
            for _ in range(count)
        ]
        return cls(entries)

    # -- consumption ------------------------------------------------------ #

    def take(self, slot: int, call: int, cmd: str) -> Optional[Dict[str, Any]]:
        """Directive for the message ``(slot, call, cmd)``, consuming its entry."""
        with self._lock:
            for i, e in enumerate(self._entries):
                if e.site is not None:
                    continue
                if e.worker is not None and e.worker != slot:
                    continue
                if e.call != call or (e.cmd is not None and e.cmd != cmd):
                    continue
                del self._entries[i]
                return e.directive()
        return None

    def check_site(self, site: str) -> None:
        """Fire-and-consume hook for driver-side sites.

        Each call advances the site's ordinal; a matching entry raises
        :class:`InjectedFault` exactly once.  No-op without a match, so the
        hook is safe to leave on hot paths.
        """
        with self._lock:
            ordinal = self._site_calls.get(site, 0)
            self._site_calls[site] = ordinal + 1
            for i, e in enumerate(self._entries):
                if e.site == site and e.call == ordinal:
                    del self._entries[i]
                    raise InjectedFault(
                        f"injected fault at site {site!r} ordinal {ordinal}"
                    )

    # -- introspection ---------------------------------------------------- #

    def remaining(self) -> int:
        with self._lock:
            return len(self._entries)

    def to_spec(self) -> str:
        """Spec string of the entries not yet fired."""
        with self._lock:
            return ";".join(e.to_spec() for e in self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.to_spec()!r})"


@dataclass
class ExecHealth:
    """Counters and event log of the supervision ladder (one per backend).

    ``events`` records every transition the ladder took, in order: worker
    failures (with their classified kind), retries, rebuilds and inline
    fallbacks.  The chaos suite asserts exact counter values; the CI chaos
    job uploads :meth:`as_dict` as a JSON artifact.
    """

    retries: int = 0
    rebuilds: int = 0
    inline_fallbacks: int = 0
    worker_deaths: int = 0
    worker_hangs: int = 0
    worker_timeouts: int = 0
    worker_errors: int = 0
    events: List[Dict[str, Any]] = field(default_factory=list)

    def record_failure(self, what: str, kind: str, slot: Optional[int], attempt: int,
                       detail: str) -> None:
        if kind == "died":
            self.worker_deaths += 1
        elif kind == "hung":
            self.worker_hangs += 1
        elif kind == "timeout":
            self.worker_timeouts += 1
        else:
            self.worker_errors += 1
        self.events.append(
            {
                "event": "failure",
                "what": what,
                "kind": kind,
                "slot": slot,
                "attempt": attempt,
                "detail": detail[:400],
            }
        )

    def record_retry(self, what: str, attempt: int) -> None:
        self.retries += 1
        self.events.append({"event": "retry", "what": what, "attempt": attempt})

    def record_rebuild(self, what: str) -> None:
        self.rebuilds += 1
        self.events.append({"event": "rebuild", "what": what})

    def record_inline_fallback(self, what: str) -> None:
        self.inline_fallbacks += 1
        self.events.append({"event": "inline-fallback", "what": what})

    def as_dict(self) -> Dict[str, Any]:
        return {
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "inline_fallbacks": self.inline_fallbacks,
            "worker_deaths": self.worker_deaths,
            "worker_hangs": self.worker_hangs,
            "worker_timeouts": self.worker_timeouts,
            "worker_errors": self.worker_errors,
            "events": [dict(e) for e in self.events],
        }

    def write_json(self, path: str, exclusive: bool = False) -> None:
        """Dump the report as JSON; ``exclusive`` refuses to overwrite.

        With ``exclusive=True`` the file is opened with ``"x"`` so an
        existing report (a previous process whose pid was reused, a
        concurrent pipeline sharing the dump directory) raises
        :class:`FileExistsError` instead of being silently clobbered.
        """
        with open(path, "x" if exclusive else "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
