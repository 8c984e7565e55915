"""Epoch-keyed LRU+TTL result cache for served delta-BFlow answers.

Keys are ``(epoch, source, sink, delta, algorithm)`` where
``epoch`` is :attr:`repro.temporal.network.TemporalFlowNetwork.epoch` at
solve time.  Because every streaming append bumps the epoch, a stale
answer can never be served: entries computed against an older network
state simply stop matching.  :meth:`ResultCache.purge_epochs_below`
additionally evicts those dead entries eagerly (the server calls it on
every append), so capacity is not wasted carrying unreachable keys and
the invalidation count is observable.

Entries optionally expire after a TTL — useful when operators prefer
bounded staleness *visibility* (metrics) even though epoch keying already
guarantees correctness.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

#: A cached answer: (density, interval, flow_value).
CachedAnswer = tuple[float, tuple[int, int] | None, float]

CacheKey = tuple[Hashable, ...]


class ResultCache:
    """A bounded LRU cache with optional TTL and instrumentation.

    Args:
        capacity: maximum live entries; the least recently used entry is
            evicted when full.  Must be >= 1.
        ttl: seconds after which an entry expires, or ``None`` to keep
            entries until evicted/invalidated.
        clock: injectable monotonic clock (tests freeze it).
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        ttl: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive seconds or None, got {ttl}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        # key -> (value, expires_at | None); insertion/access order = LRU.
        self._entries: "OrderedDict[CacheKey, tuple[Any, float | None]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> Any | None:
        """The cached value, or ``None`` on miss/expiry (LRU-bumps hits)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, expires_at = entry
        if expires_at is not None and self._clock() >= expires_at:
            del self._entries[key]
            self.expirations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: CacheKey, value: Any) -> None:
        """Insert/overwrite an entry, evicting the LRU one when full."""
        expires_at = self._clock() + self.ttl if self.ttl is not None else None
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (value, expires_at)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def purge_epochs_below(self, epoch: int) -> int:
        """Drop every entry whose key epoch precedes ``epoch``.

        Epoch keying already makes those entries unreachable; purging
        reclaims their capacity immediately and counts them as
        invalidations.  Returns the number of dropped entries.
        """
        stale = [key for key in self._entries if key[0] < epoch]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self.invalidations += len(self._entries)
        self._entries.clear()

    def snapshot(self) -> dict[str, Any]:
        """JSON-able cache statistics."""
        total = self.hits + self.misses
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "ttl_seconds": self.ttl,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else None,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
        }
