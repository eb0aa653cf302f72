"""Label arrays: the top-down pass's output, one array per problem.

Paper Definition 1 labels every edge with the output of its child endpoint,
so a problem's labels fit one array over the compiled plan's node index
(:attr:`~repro.dp.kernels.plan.ClusteringPlan.node_ids`): entry ``i`` is the
label of node ``i`` of the (degree-reduced) tree and of the edge above it.
The root's entry holds the root label, the label of the virtual edge above
the root, so the final cluster's out-edge reads the array like every other
cluster's.  This module owns that format:

* :class:`LabelFormat` — how one solver stores labels: state ids (``int32``)
  with the state table that decodes them (dense solvers), or the label
  objects themselves in an object array (every other solver);
* :class:`LabelKeys` — the node keys of one labeled tree and their positions
  in the array, built once per prepared tree: the reduced tree itself, and
  the original tree with the degree reduction's auxiliary nodes left out;
* :class:`NodeLabels` / :class:`EdgeLabels` — read-only
  :class:`~collections.abc.Mapping` views of a frozen array through a
  :class:`LabelKeys`.  They compare equal to the dicts they stand for, in
  both directions; ``dict(view)`` or :meth:`LabelView.to_dict` copies one.

The full solve, the incremental update path and publication share one
array per problem: the solve writes it, an update batch rewrites the
entries that changed, and a published view freezes a copy.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "LabelFormat",
    "OBJECT_LABELS",
    "LabelKeys",
    "LabelView",
    "NodeLabels",
    "EdgeLabels",
    "label_views",
    "object_array",
    "summaries_equal",
]

Edge = Tuple[Hashable, Hashable]

#: Dtype of dense label arrays (state ids).
STATE_ID = np.int32


def object_array(items: Sequence[Any]) -> np.ndarray:
    """A 1-d object array holding ``items`` as scalars (tuples stay whole)."""
    return np.fromiter(items, dtype=object, count=len(items))


def summaries_equal(a: Any, b: Any) -> bool:
    """Structural bit-equality of two summaries or labels.

    Prunes the update path's dirty chain (a re-solved cluster whose summary
    equals the previous one cannot change its parent) and detects changed
    object labels.  Conservative: anything it cannot prove equal (unknown
    types without ``__eq__``) counts as changed, which costs extra work but
    never correctness.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        if a.keys() != b.keys():
            return False
        return all(summaries_equal(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and a.dtype == b.dtype and bool(np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(summaries_equal(x, y) for x, y in zip(a, b))
    try:
        return bool(a == b)
    except Exception:
        return False


class LabelFormat:
    """How one solver's labels are stored: state ids or label objects.

    With ``states`` (a dense solver's ordered state tuple) labels are state
    ids into it; without, they are the label objects.  ``absent`` fills the
    in-label of a cluster that has no incoming edge.
    """

    __slots__ = ("states", "index", "dtype", "absent")

    def __init__(self, states: Optional[Sequence[Hashable]] = None) -> None:
        self.states: Optional[np.ndarray] = None
        self.index: Optional[Dict[Hashable, int]] = None
        self.dtype: np.dtype = np.dtype(object)
        self.absent: Any = None
        if states is not None:
            self.states = object_array(list(states))
            self.index = {s: i for i, s in enumerate(states)}
            self.dtype = np.dtype(STATE_ID)
            self.absent = 0

    def empty(self, n: int) -> np.ndarray:
        """A label array of ``n`` entries, every one ``absent``."""
        return np.full(n, self.absent, dtype=self.dtype)

    def encode(self, label: Any) -> Any:
        """The stored form of one label."""
        return label if self.index is None else self.index[label]

    def pack(self, labels: Any) -> np.ndarray:
        """A solver's labels (a sequence, or already an array) as a label array."""
        if isinstance(labels, np.ndarray) and labels.dtype == self.dtype:
            return labels
        if self.states is None:
            return object_array(list(labels))
        return np.asarray(labels, dtype=self.dtype)

    def gather(self, values: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """``values[idx]``, with ``absent`` where ``idx`` is ``-1``."""
        out = values[np.maximum(idx, 0)]
        out[idx < 0] = self.absent
        return out

    def decode(self, values: np.ndarray) -> List[Any]:
        """The label objects of stored ``values``, in one C-level pass."""
        if self.states is None:
            out: List[Any] = values.tolist()
            return out
        decoded: List[Any] = self.states[values].tolist()
        return decoded

    def decode_one(self, value: Any) -> Any:
        return value if self.states is None else self.states[value]

    def changed(self, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Mask of the entries where ``new`` differs from ``old``.

        Vectorized on state ids; object labels go through
        :func:`summaries_equal` one by one.
        """
        if self.states is not None:
            mask: np.ndarray = old != new
            return mask
        return np.fromiter(
            (not summaries_equal(a, b) for a, b in zip(old.tolist(), new.tolist())),
            dtype=bool,
            count=len(old),
        )


#: The format of every solver that does not declare state ids.
OBJECT_LABELS = LabelFormat()


class LabelKeys:
    """The node keys of one labeled tree and their label-array positions.

    ``nodes`` lists every labeled node (the root included) and ``pos`` its
    position in the array; ``at`` maps a node to its position.  An edge's
    key is ``(child, parent[child])`` for every non-root node.  Built once
    per prepared tree (see
    :meth:`~repro.dp.kernels.plan.ClusteringPlan.label_keys`) and shared by
    every view of it.
    """

    __slots__ = ("nodes", "pos", "at", "parent", "root", "_edges")

    def __init__(
        self,
        nodes: List[Hashable],
        pos: np.ndarray,
        at: Mapping[Hashable, int],
        parent: Mapping[Hashable, Hashable],
        root: Hashable,
    ) -> None:
        self.nodes = nodes
        self.pos = pos
        self.at = at
        self.parent = parent
        self.root = root
        self._edges: Optional[Tuple[List[Edge], np.ndarray]] = None

    def edges(self) -> Tuple[List[Edge], np.ndarray]:
        """Every edge key, and its position in the array (built once)."""
        if self._edges is None:
            parent, root = self.parent, self.root
            keep = [i for i, v in enumerate(self.nodes) if v != root]
            nodes = [self.nodes[i] for i in keep]
            self._edges = ([(v, parent[v]) for v in nodes], self.pos[keep])
        return self._edges


#: Keys of a problem that produces no labels.
_NO_KEYS = LabelKeys([], np.zeros(0, dtype=np.int64), {}, {}, None)


class LabelView(Mapping):
    """Read-only :class:`~collections.abc.Mapping` over a frozen label array."""

    __slots__ = ("_values", "_fmt", "_keys")

    def __init__(self, values: np.ndarray, fmt: LabelFormat, keys: LabelKeys) -> None:
        self._values = values
        self._fmt = fmt
        self._keys = keys

    @property
    def array(self) -> np.ndarray:
        """The frozen label array this view reads."""
        return self._values

    def over(self, keys: LabelKeys) -> "LabelView":
        """The same kind of view of the same array through other ``keys``
        (a view of no labels stays empty)."""
        if self._keys is _NO_KEYS:
            return self
        return type(self)(self._values, self._fmt, keys)

    def node_dict(self) -> Dict[Hashable, Any]:
        """Every node's label (the root's too) as a new dict, in one C-level pass."""
        k = self._keys
        return dict(zip(k.nodes, self._fmt.decode(self._values[k.pos])))

    def to_dict(self) -> Dict[Any, Any]:
        """This view's labels as a new, mutable dict."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LabelView):
            return self.to_dict() == other.to_dict()
        if isinstance(other, Mapping):
            return self.to_dict() == (other if isinstance(other, dict) else dict(other.items()))
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()!r})"


class NodeLabels(LabelView):
    """Node → label: a node's label is the label of the edge above it."""

    __slots__ = ()

    def __getitem__(self, v: Hashable) -> Any:
        return self._fmt.decode_one(self._values[self._keys.at[v]])

    def __contains__(self, v: object) -> bool:
        return v in self._keys.at

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._keys.nodes)

    def __len__(self) -> int:
        return len(self._keys.nodes)

    def to_dict(self) -> Dict[Hashable, Any]:
        return self.node_dict()


class EdgeLabels(LabelView):
    """``(child, parent)`` → label of every tree edge."""

    __slots__ = ()

    def _position(self, edge: Any) -> int:
        k = self._keys
        try:
            child, parent = edge
            i = k.at[child]
        except (TypeError, ValueError, KeyError):
            raise KeyError(edge) from None
        if child == k.root or k.parent[child] != parent:
            raise KeyError(edge)
        return i

    def __getitem__(self, edge: Edge) -> Any:
        return self._fmt.decode_one(self._values[self._position(edge)])

    def __contains__(self, edge: object) -> bool:
        try:
            self._position(edge)
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator[Edge]:
        return iter(self._keys.edges()[0])

    def __len__(self) -> int:
        return len(self._keys.nodes) - (self._keys.root in self._keys.at)

    def to_dict(self) -> Dict[Edge, Any]:
        edges, pos = self._keys.edges()
        return dict(zip(edges, self._fmt.decode(self._values[pos])))


def label_views(
    values: Optional[np.ndarray], fmt: LabelFormat, keys: LabelKeys, copy: bool = False
) -> Tuple[EdgeLabels, NodeLabels]:
    """Edge and node views of ``values`` (``None``: no labels, both empty).

    The views read a frozen array: ``values`` itself, made read-only, or a
    read-only copy when ``copy`` is set (the caller keeps writing the
    original).
    """
    if values is None:
        values, keys = np.zeros(0, dtype=fmt.dtype), _NO_KEYS
    elif copy:
        values = values.copy()
    values.flags.writeable = False
    return EdgeLabels(values, fmt, keys), NodeLabels(values, fmt, keys)
