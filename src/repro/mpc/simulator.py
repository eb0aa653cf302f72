"""Round-accounted MPC simulator.

The simulator owns a fixed set of :class:`~repro.mpc.machine.Machine` objects
and executes *supersteps*: in a superstep every machine runs a local compute
function over its store and inbox and emits messages addressed to other
machines; the simulator then delivers all messages, increments the round
counter and records communication statistics.

Two accounting channels exist:

* **Measured rounds** — every call to :meth:`MPCSimulator.superstep` counts as
  one communication round, and the words sent/received per machine are
  measured against the bandwidth cap.
* **Charged rounds** — some orchestration steps of the reproduction (for
  example the per-layer data reorganisation of the DP engine, Section 5 of
  the paper) are executed by the driver but correspond to a constant number
  of sort/route rounds in the model; they are charged explicitly via
  :meth:`MPCSimulator.charge_rounds` with a label, so benchmarks can report
  measured and charged rounds separately.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.mpc.config import MPCConfig
from repro.mpc.machine import Machine
from repro.mpc.words import record_sizer, scalar_sizer
from repro.obs import clock
from repro.obs.context import ObsContext

__all__ = ["MPCSimulator", "RoundStats", "CapacityViolation"]


class CapacityViolation(RuntimeError):
    """Raised in strict mode when memory or bandwidth caps are exceeded."""


@dataclass
class RoundStats:
    """Aggregate statistics of a simulation run."""

    rounds: int = 0
    charged_rounds: int = 0
    total_messages: int = 0
    total_words_sent: int = 0
    charged_words: int = 0
    peak_machine_words: int = 0
    peak_round_send_words: int = 0
    peak_round_recv_words: int = 0
    memory_violations: int = 0
    bandwidth_violations: int = 0
    charged_by_label: Dict[str, int] = field(default_factory=dict)
    rounds_by_label: Dict[str, int] = field(default_factory=dict)
    charged_words_by_label: Dict[str, int] = field(default_factory=dict)

    @property
    def total_rounds(self) -> int:
        """Measured plus charged rounds."""
        return self.rounds + self.charged_rounds

    def snapshot(self) -> "RoundStats":
        """Return a copy of the current statistics."""
        return RoundStats(
            rounds=self.rounds,
            charged_rounds=self.charged_rounds,
            total_messages=self.total_messages,
            total_words_sent=self.total_words_sent,
            charged_words=self.charged_words,
            peak_machine_words=self.peak_machine_words,
            peak_round_send_words=self.peak_round_send_words,
            peak_round_recv_words=self.peak_round_recv_words,
            memory_violations=self.memory_violations,
            bandwidth_violations=self.bandwidth_violations,
            charged_by_label=dict(self.charged_by_label),
            rounds_by_label=dict(self.rounds_by_label),
            charged_words_by_label=dict(self.charged_words_by_label),
        )

    def diff(self, earlier: "RoundStats") -> "RoundStats":
        """Statistics accumulated since ``earlier`` (a snapshot)."""

        def label_diff(now: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
            out = {k: v - before.get(k, 0) for k, v in now.items()}
            return {k: v for k, v in out.items() if v}

        d = RoundStats(
            rounds=self.rounds - earlier.rounds,
            charged_rounds=self.charged_rounds - earlier.charged_rounds,
            total_messages=self.total_messages - earlier.total_messages,
            total_words_sent=self.total_words_sent - earlier.total_words_sent,
            charged_words=self.charged_words - earlier.charged_words,
            peak_machine_words=self.peak_machine_words,
            peak_round_send_words=self.peak_round_send_words,
            peak_round_recv_words=self.peak_round_recv_words,
            memory_violations=self.memory_violations - earlier.memory_violations,
            bandwidth_violations=self.bandwidth_violations - earlier.bandwidth_violations,
            charged_by_label=label_diff(self.charged_by_label, earlier.charged_by_label),
            rounds_by_label=label_diff(self.rounds_by_label, earlier.rounds_by_label),
            charged_words_by_label=label_diff(
                self.charged_words_by_label, earlier.charged_words_by_label
            ),
        )
        return d


# A compute function receives the machine and returns an iterable of
# (destination machine id, message) pairs.
ComputeFn = Callable[[Machine], Iterable[Tuple[int, Any]]]


class MPCSimulator:
    """Simulated MPC deployment: machines + superstep execution + accounting."""

    def __init__(self, config: MPCConfig):
        self.config = config
        #: Per-object / per-iterable word sizers selected by config.accounting.
        self.word_size = scalar_sizer(config.accounting)
        self.record_words = record_sizer(config.accounting)
        self.machines: List[Machine] = [
            Machine(mid=i, capacity=config.machine_capacity, sizer=self.record_words)
            for i in range(config.num_machines)
        ]
        self.stats = RoundStats()
        #: Per-run observability context (see :mod:`repro.obs`): the shared
        #: inert singleton when ``config.obs == "off"``, so every hook below
        #: reduces to one attribute check.  The timeline hooks sit at the
        #: four accrual points (superstep / tick_rounds / charge_rounds /
        #: charge_words) — the *only* places RoundStats moves — so the
        #: recorded events sum back to RoundStats bit-identically.
        self.obs = ObsContext.for_config(config)
        #: Words received per machine in the most recent superstep; consumers
        #: that take ownership of the delivered messages (darray routing) use
        #: it to carry the already-priced totals forward without a re-walk.
        self.last_recv_words: Dict[int, int] = {}
        self._executor = None

    @property
    def executor(self):
        """The execution backend selected by ``config.exec_backend`` (lazy).

        Execution placement of the DP layer batches (inline vs. the shared
        process pool, see :mod:`repro.mpc.exec`) is orthogonal to
        accounting: whichever backend evaluates a batch, rounds and words
        are charged here, and both backends are bit-identical in outputs
        and statistics.
        """
        if self._executor is None:
            from repro.mpc.exec import resolve_backend

            self._executor = resolve_backend(self.config)
        return self._executor

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def machine_capacity(self) -> int:
        return self.config.machine_capacity

    def machine(self, mid: int) -> Machine:
        return self.machines[mid]

    # ------------------------------------------------------------------ #
    # Data placement
    # ------------------------------------------------------------------ #

    def scatter(  # mpclint: disable=uncharged-communication -- initial placement is part of the MPC input specification and costs no rounds
        self, records: Sequence[Any]
    ) -> None:
        """Distribute ``records`` evenly over the machines (initial placement).

        Initial data placement is part of the input specification in the MPC
        model and does not cost rounds.
        """
        m = self.num_machines
        chunks: List[List[Any]] = [[] for _ in range(m)]
        if records:
            per = max(1, (len(records) + m - 1) // m)
            for i, rec in enumerate(records):
                chunks[min(i // per, m - 1)].append(rec)
        for machine, chunk in zip(self.machines, chunks):
            machine.replace_store(chunk)
        self._record_memory()

    def gather(  # mpclint: disable=uncharged-communication -- driver-side output inspection, not an MPC operation (a deployment would write to a DFS)
        self,
    ) -> List[Any]:
        """Collect all records to the driver (test/benchmark convenience).

        This is *not* an MPC operation and costs no rounds; it is only used by
        the driver to inspect results, mirroring how a real deployment would
        write its output to a distributed file system.
        """
        out: List[Any] = []
        for machine in self.machines:
            out.extend(machine.store)
        return out

    # ------------------------------------------------------------------ #
    # Superstep execution
    # ------------------------------------------------------------------ #

    def superstep(self, compute: ComputeFn, label: str = "superstep") -> None:
        """Execute one communication round.

        Every machine runs ``compute(machine)``; the returned messages are
        delivered into the destination machines' inboxes, which become
        visible at the start of the *next* superstep.
        """
        obs = self.obs
        if obs.tracing:
            t_round = clock.now()
            words_before = self.stats.total_words_sent
        outgoing: Dict[int, List[Any]] = defaultdict(list)
        send_words: Dict[int, int] = defaultdict(int)
        recv_words: Dict[int, int] = defaultdict(int)
        sizer = self.word_size

        for machine in self.machines:
            emitted = compute(machine) or []
            for dest, message in emitted:
                if not (0 <= dest < self.num_machines):
                    raise ValueError(
                        f"machine {machine.mid} addressed invalid machine {dest}"
                    )
                outgoing[dest].append(message)
                # Each message is priced once; the receive-side total is the
                # sum of the same sizes (identical objects, deterministic
                # sizer), so no second walk is needed on delivery.
                w = sizer(message)
                send_words[machine.mid] += w
                recv_words[dest] += w
                self.stats.total_messages += 1
                self.stats.total_words_sent += w

        # Deliver messages; bandwidth was accounted per message above.
        for machine in self.machines:
            machine.clear_inbox()
        for dest, msgs in outgoing.items():
            self.machines[dest].receive(msgs)
        self.last_recv_words = dict(recv_words)

        max_send = max(send_words.values(), default=0)
        max_recv = max(recv_words.values(), default=0)
        self.stats.peak_round_send_words = max(self.stats.peak_round_send_words, max_send)
        self.stats.peak_round_recv_words = max(self.stats.peak_round_recv_words, max_recv)

        cap = self.machine_capacity
        if max_send > cap or max_recv > cap:
            self.stats.bandwidth_violations += 1
            if self.config.strict_bandwidth:
                raise CapacityViolation(
                    f"bandwidth cap {cap} exceeded in round {self.stats.rounds} "
                    f"(send {max_send}, recv {max_recv})"
                )

        self.stats.rounds += 1
        self.stats.rounds_by_label[label] = self.stats.rounds_by_label.get(label, 0) + 1
        self._record_memory()
        if obs.tracing:
            obs.round_event(
                "superstep",
                label,
                rounds=1,
                words=self.stats.total_words_sent - words_before,
                wall=clock.now() - t_round,
            )

    def _record_memory(self) -> None:
        peak = max((m.load_words() for m in self.machines), default=0)
        self.stats.peak_machine_words = max(self.stats.peak_machine_words, peak)
        if peak > self.machine_capacity:
            self.stats.memory_violations += 1
            if self.config.strict_memory:
                raise CapacityViolation(
                    f"memory cap {self.machine_capacity} exceeded (peak {peak})"
                )

    def observe_loads(self, loads_words: Sequence[int]) -> None:
        """Record per-machine memory loads held outside ``machine.store``.

        :class:`~repro.mpc.darray.DistributedArray` keeps its partitions in
        its own structure for convenience; it reports the per-machine word
        counts here so memory accounting covers them as well.
        """
        peak = max(loads_words, default=0)
        self.stats.peak_machine_words = max(self.stats.peak_machine_words, peak)
        if peak > self.machine_capacity:
            self.stats.memory_violations += 1
            if self.config.strict_memory:
                raise CapacityViolation(
                    f"memory cap {self.machine_capacity} exceeded (peak {peak})"
                )

    def tick_rounds(self, k: int, label: str = "superstep") -> None:
        """Count ``k`` *measured* communication rounds evaluated by the driver.

        Semantically these are genuine supersteps of the model — they advance
        the round counter and the per-label round counts exactly like
        :meth:`superstep` — but the local computation and the O(1)-word
        per-machine traffic they carry are evaluated on the driver instead of
        being routed through the machines.  Two users:

        * the array-backed tree subroutines
          (:mod:`repro.mpc.treeops_array`), which compute bit-identical
          outputs to the record-level path and tick the identical round/label
          sequence, and
        * the short-circuited convergence convergecasts of the record-level
          doubling loops, where the driver evaluates the "any machine still
          active?" predicate directly but the one-round convergecast the
          model needs for the machines to agree on termination is still
          counted here.

        No messages flow, so message/word statistics are unaffected; only
        round counts move.
        """
        if k < 0:
            raise ValueError("cannot tick a negative number of rounds")
        self.stats.rounds += k
        if k:
            self.stats.rounds_by_label[label] = self.stats.rounds_by_label.get(label, 0) + k
            if self.obs.tracing:
                self.obs.round_event("tick", label, rounds=k)

    # ------------------------------------------------------------------ #
    # Charged rounds
    # ------------------------------------------------------------------ #

    def charge_rounds(self, k: int, label: str = "charged") -> None:
        """Charge ``k`` communication rounds performed by the driver.

        Used for orchestration steps whose data movement is a constant number
        of sorts/routes in the model but which the reproduction executes on
        the driver for clarity (see module docstring).
        """
        if k < 0:
            raise ValueError("cannot charge a negative number of rounds")
        self.stats.charged_rounds += k
        self.stats.charged_by_label[label] = self.stats.charged_by_label.get(label, 0) + k
        if self.obs.tracing:
            self.obs.round_event("charge", label, rounds=k)

    def charge_words(self, words: int, label: str = "charged") -> None:
        """Charge ``words`` machine words of driver-evaluated communication.

        The companion of :meth:`charge_rounds` for data volume: orchestration
        steps executed on the driver (the DP engine's per-layer summary and
        label routing, the incremental update path's partial re-solves)
        declare here how many words the corresponding sort/route rounds would
        move.  Keeping the channel separate from the *measured*
        ``total_words_sent`` lets benchmarks compare e.g. a full solve's
        charged volume against an incremental update's without the two
        polluting each other — and without pretending driver-evaluated
        traffic went over the simulated wire.
        """
        if words < 0:
            raise ValueError("cannot charge a negative number of words")
        if words:
            self.stats.charged_words += words
            self.stats.charged_words_by_label[label] = (
                self.stats.charged_words_by_label.get(label, 0) + words
            )
            if self.obs.tracing:
                self.obs.round_event("charge-words", label, words=words)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #

    def broadcast_to_all(self, small_value: Any, label: str = "broadcast") -> None:
        """Broadcast a small value from machine 0 to every machine (1 round).

        The value is appended to every machine's inbox.  The value must be
        small (O(machine capacity) words in total across all recipients is
        *not* required by the model for broadcast trees; we charge a single
        round, matching the paper's use of O(1)-round broadcast of O(1)-word
        summaries).
        """

        def compute(machine: Machine):
            if machine.mid == 0:
                return [(dest, small_value) for dest in range(self.num_machines)]
            return []

        self.superstep(compute, label=label)

    def snapshot(self) -> RoundStats:
        return self.stats.snapshot()

    def rounds_since(self, snap: RoundStats) -> int:
        return self.stats.total_rounds - snap.total_rounds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MPCSimulator(machines={self.num_machines}, "
            f"capacity={self.machine_capacity}, rounds={self.stats.rounds})"
        )
