"""Versioned, snapshot-isolated read side of the serving layer.

A :class:`Snapshot` pairs one problem's immutable
:class:`~repro.dynamic.SolvedView` with the server's batch version; the
:class:`SnapshotStore` publishes them with a single reference swap, so a
reader — running in the event loop while the writer thread applies the next
batch and builds its snapshots — always sees a complete pre- or post-batch
state, never a torn one.

The store relies on the single-writer discipline of the serving layer:
only the batcher's apply path publishes, readers only ever call
:meth:`SnapshotStore.current`.  Publication atomicity comes from Python
reference assignment (a reader holds either the old dict or the new one);
no locks are needed because snapshots are immutable once published.  The
one deferred part of a snapshot, its ``output``, is built on first read
behind the view's own lock (see :class:`~repro.dynamic.SolvedView`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, Mapping, Tuple

from repro.dynamic import SolvedView

__all__ = ["Snapshot", "SnapshotStore"]


@dataclass(frozen=True)
class Snapshot:
    """One problem's solved state at one batch boundary."""

    problem: str
    version: int
    view: SolvedView

    @property
    def value(self) -> Any:
        return self.view.value

    @property
    def root_label(self) -> Any:
        return self.view.root_label

    @property
    def node_labels(self) -> Mapping[Hashable, Any]:
        return self.view.node_labels

    @property
    def edge_labels(self) -> Mapping[Tuple[Hashable, Hashable], Any]:
        return self.view.edge_labels

    @property
    def output(self) -> Any:
        """The problem's output at this snapshot's version.

        Built on the first read, on the reading thread (the event loop, for
        a :class:`~repro.serving.TreeServer`'s readers), once per version;
        :attr:`value` and the label mappings never build it.
        """
        return self.view.output


class SnapshotStore:
    """Current snapshot per problem, swapped atomically per batch."""

    def __init__(self) -> None:
        self._current: Dict[str, Snapshot] = {}

    def publish_all(self, snapshots: Iterable[Snapshot]) -> None:
        """Swap in a batch's snapshots for every problem at once.

        Built as a fresh dict and assigned in one reference store, so a
        reader iterating several problems within one event-loop step sees
        them all at the same version.  Versions must advance monotonically —
        a regression means two writers raced, which the batcher forbids.
        """
        staged = dict(self._current)
        for snap in snapshots:
            cur = staged.get(snap.problem)
            if cur is not None and snap.version <= cur.version:
                raise ValueError(
                    f"snapshot version regression for {snap.problem!r}: "
                    f"{cur.version} -> {snap.version} (two writers?)"
                )
            staged[snap.problem] = snap
        self._current = staged

    def current(self, problem: str) -> Snapshot:
        """The latest published snapshot of ``problem``."""
        try:
            return self._current[problem]
        except KeyError:
            raise KeyError(
                f"no snapshot for problem {problem!r}; "
                f"published: {tuple(self._current)!r}"
            ) from None

    def problems(self) -> Tuple[str, ...]:
        return tuple(self._current)

    def versions(self) -> Dict[str, int]:
        """Current version per problem (equal across problems between batches)."""
        return {name: snap.version for name, snap in self._current.items()}
