"""Word-size accounting helpers.

The MPC model measures memory in *words* (machine words of O(log n) bits).
The paper requires dynamic programming tables to occupy ``O(1)`` words
(Definition 1, property 2) and machines to hold ``Theta(n^delta)`` words.

Two sizers implement the same pricing rules:

* :func:`word_size` — the **exact** reference walker.  It recursively visits
  every element of every container and prices each scalar individually
  (integers by bit length, strings by length, and so on).
* :func:`fast_word_size` — the **structural** sizer used by the default
  ``accounting="fast"`` mode (:class:`~repro.mpc.config.MPCConfig`).  It
  prices the same rules but exploits the shape of the records the substrate
  actually ships: exact ``type()`` dispatch instead of ``isinstance`` chains,
  a flat (non-recursive) loop over tuple/list elements, and an O(1)
  ``1 + len(...)`` fast path for homogeneous scalar sets (the up-to-``cap``
  element frozensets carried by ``capped_subtree_gather`` are the motivating
  case).  The homogeneity assumption is *peeked*, not verified: a set whose
  first iterated element is a machine-word scalar is priced at one word per
  element.  All payloads shipped by this repository satisfy the assumption
  (node ids, weights); the equivalence test-suite asserts that exact and fast
  accounting observe identical peak words on full pipeline runs.

Records may also carry an explicit pre-computed size in an ``__mpc_words__``
attribute; both sizers treat it as authoritative, which gives higher layers
an O(1) accounting path for large composite records.

The per-mode record sizers are selected with :func:`record_sizer`
(``"exact"`` or ``"fast"``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

__all__ = [
    "word_size",
    "fast_word_size",
    "record_words",
    "fast_record_words",
    "record_sizer",
    "scalar_sizer",
    "ACCOUNTING_MODES",
]

ACCOUNTING_MODES = ("exact", "fast")

#: Machine-word bounds: integers inside this range cost exactly one word.
_WORD_MIN = -(2**63)
_WORD_MAX = 2**63 - 1


def word_size(obj: Any) -> int:
    """Return the number of machine words needed to store ``obj`` (exact walk).

    The estimate is intentionally simple and conservative:

    * ``None`` and booleans cost 1 word.
    * Integers cost 1 word per 64 bits (so ordinary ids and weights cost 1).
    * Floats cost 1 word.
    * Strings cost 1 word per 8 characters (rounded up), minimum 1.
    * Tuples, lists, sets and dicts cost the sum of their elements plus one
      word of structural overhead.
    * NumPy arrays cost one word per 8 bytes of data.
    * Objects carrying an integer ``__mpc_words__`` attribute cost exactly
      that (an explicitly maintained cached size).  The cache wins over every
      structural rule — including for container/scalar *subclasses* — so the
      exact and fast sizers agree on cached records: plain builtins cannot
      carry the attribute, and everything else reaches a cache lookup before
      structural pricing in both sizers.
    """
    cached = getattr(obj, "__mpc_words__", None)
    if cached is not None:
        return int(cached)
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, np.integer)):
        bits = int(obj).bit_length()
        return max(1, (bits + 63) // 64)
    if isinstance(obj, (float, np.floating)):
        return 1
    if isinstance(obj, str):
        return max(1, (len(obj) + 7) // 8)
    if isinstance(obj, bytes):
        return max(1, (len(obj) + 7) // 8)
    if isinstance(obj, np.ndarray):
        return max(1, (obj.nbytes + 7) // 8)
    if isinstance(obj, dict):
        return 1 + sum(word_size(k) + word_size(v) for k, v in obj.items())
    if isinstance(obj, (tuple, list, set, frozenset)):
        return 1 + sum(word_size(x) for x in obj)
    # Fall back to the object's __dict__ if it has one, else one word.
    d = getattr(obj, "__dict__", None)
    if d:
        return 1 + sum(word_size(v) for v in d.values())
    return 1


def fast_word_size(obj: Any) -> int:
    """Structural word size of ``obj`` — same pricing rules, cheaper dispatch.

    See the module docstring for the (documented) homogeneity assumption on
    sets; everything else prices identically to :func:`word_size`.
    """
    t = type(obj)
    if t is int:
        if _WORD_MIN <= obj <= _WORD_MAX:
            return 1
        return (obj.bit_length() + 63) // 64
    if t is bool or t is float or obj is None:
        return 1
    if t is tuple or t is list:
        total = 1
        for x in obj:
            tx = type(x)
            if tx is int:
                total += 1 if _WORD_MIN <= x <= _WORD_MAX else (x.bit_length() + 63) // 64
            elif tx is bool or tx is float:
                total += 1
            else:
                total += fast_word_size(x)
        return total
    if t is frozenset or t is set:
        if not obj:
            return 1
        first = next(iter(obj))
        tf = type(first)
        if (tf is int and _WORD_MIN <= first <= _WORD_MAX) or tf is bool or tf is float:
            # Homogeneous machine-word scalar set: one word per element.
            return 1 + len(obj)
        return 1 + sum(fast_word_size(x) for x in obj)
    if t is str or t is bytes:
        return max(1, (len(obj) + 7) // 8)
    if t is dict:
        return 1 + sum(fast_word_size(k) + fast_word_size(v) for k, v in obj.items())
    cached = getattr(obj, "__mpc_words__", None)
    if cached is not None:
        return int(cached)
    # Exotic records (NumPy scalars/arrays, dataclasses): exact walker rules.
    return word_size(obj)


def record_words(records: Iterable[Any]) -> int:
    """Total exact word size of an iterable of records."""
    return sum(word_size(r) for r in records)


def fast_record_words(records: Iterable[Any]) -> int:
    """Total structural word size of an iterable of records."""
    return sum(fast_word_size(r) for r in records)


def scalar_sizer(mode: str) -> Callable[[Any], int]:
    """The per-object sizer for an accounting mode."""
    if mode == "exact":
        return word_size
    if mode == "fast":
        return fast_word_size
    raise ValueError(f"accounting mode must be one of {ACCOUNTING_MODES}, got {mode!r}")


def record_sizer(mode: str) -> Callable[[Iterable[Any]], int]:
    """The record-iterable sizer for an accounting mode."""
    if mode == "exact":
        return record_words
    if mode == "fast":
        return fast_record_words
    raise ValueError(f"accounting mode must be one of {ACCOUNTING_MODES}, got {mode!r}")
