"""Tunables of the serving layer (:class:`ServerConfig`).

Defaults follow the repo's env-fallback idiom (cf.
:class:`~repro.mpc.config.MPCConfig`): a field left at ``None`` reads its
``REPRO_SERVING_*`` environment variable, then falls back to the built-in
default — so a deployment can retune a server without touching code.  All
knobs are documented in ``docs/CONFIG.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

__all__ = ["ServerConfig"]

DEFAULT_MAX_BATCH = 256
DEFAULT_MAX_DELAY = 0.0
DEFAULT_QUEUE_LIMIT = 10_000


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class ServerConfig:
    """How a :class:`~repro.serving.TreeServer` batches, caches and queues.

    Attributes
    ----------
    max_batch:
        Most point updates coalesced into one solver pass.  A submission is
        never split (its updates apply atomically), so one oversized
        submission still forms a single batch.  Env:
        ``REPRO_SERVING_MAX_BATCH``.
    max_delay:
        Seconds the batcher lingers after the first queued submission to
        coalesce more before applying (``0`` applies as soon as the writer
        is free — queue pressure alone then sets the batch size).  Env:
        ``REPRO_SERVING_MAX_DELAY``.
    queue_limit:
        Backpressure bound on queued submissions; ``update()`` calls beyond
        it wait for the writer to drain.  Env:
        ``REPRO_SERVING_QUEUE_LIMIT``.
    cache_entries:
        LRU bound forwarded to each member solver's payload-value-keyed
        rule caches; ``None`` keeps the ``REPRO_DP_CACHE_ENTRIES`` default.
    """

    max_batch: Optional[int] = None
    max_delay: Optional[float] = None
    queue_limit: Optional[int] = None
    cache_entries: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch is None:
            object.__setattr__(
                self, "max_batch", _env_int("REPRO_SERVING_MAX_BATCH", DEFAULT_MAX_BATCH)
            )
        if self.max_delay is None:
            object.__setattr__(
                self, "max_delay", _env_float("REPRO_SERVING_MAX_DELAY", DEFAULT_MAX_DELAY)
            )
        if self.queue_limit is None:
            object.__setattr__(
                self, "queue_limit", _env_int("REPRO_SERVING_QUEUE_LIMIT", DEFAULT_QUEUE_LIMIT)
            )
        if self.max_batch < 1:  # type: ignore[operator]
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay < 0:  # type: ignore[operator]
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.queue_limit < 1:  # type: ignore[operator]
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.cache_entries is not None and self.cache_entries < 1:
            raise ValueError(f"cache_entries must be >= 1 or None, got {self.cache_entries}")
