"""A bounded LRU cache keyed by placement fingerprints.

The allocation-serving engine sees the same scenes over and over: a
mobility trace revisits quantized positions, a sweep re-evaluates one
placement under many budgets, and concurrent users cluster around the
same few spots.  :class:`LRUCache` is the bounded store (with
hit/miss/eviction accounting) behind the service's channel and
allocation caches, both keyed by
:func:`repro.runtime.service.placement_fingerprint`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from ..analysis.lockgraph import monitored_lock
from ..errors import ConfigurationError

_MISSING = object()


def _freeze_arrays(value: Any) -> Any:
    """Mark cached ndarrays read-only so shared hits cannot be mutated.

    Cached values are handed out by reference to every hit; a consumer
    writing into one would silently corrupt every other consumer's view.
    Freezing turns that bug into an immediate ``ValueError`` at the
    mutation site.  Consumers that need a private copy (incremental
    column updates) already copy before writing.
    """
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def copy(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
        )


class LRUCache:
    """A bounded, thread-safe least-recently-used cache."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = monitored_lock("cache.lru")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value (refreshing its recency) or *default*."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """The cached value without touching recency or hit/miss stats.

        Used by opportunistic consumers (e.g. the incremental-channel
        path reading a neighbor placement's matrix) that should not
        distort the cache's accounting.
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/refresh a value, evicting the oldest entry when full."""
        value = _freeze_arrays(value)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def snapshot(self) -> dict:
        """Size, occupancy and hit/miss stats from one locked read.

        ``stats.as_dict()`` reads the counters field-by-field without
        the cache lock, so a concurrent reader polling while a request
        is being served can observe a hit already counted whose lookup
        is not -- a torn pair.  Every stats mutation happens under
        ``_lock``, so copying under it yields one consistent instant;
        the derived ``hit_rate``/``occupancy`` are computed from the
        copy, outside the lock (rule R2).
        """
        with self._lock:
            size = len(self._entries)
            stats = self.stats.copy()
        summary = stats.as_dict()
        summary["size"] = size
        summary["capacity"] = self.capacity
        summary["occupancy"] = size / self.capacity
        return summary
