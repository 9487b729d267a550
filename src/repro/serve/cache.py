"""The serving layer's LRU query cache.

Entries are keyed on ``(query bytes, k, index write-generation)``: the
generation component makes every index mutation an implicit, total
invalidation — a key minted before an ``add``/``remove``/``compact``
can never collide with one minted after, so stale results are
unreachable the instant the index changes.  :class:`repro.serve.server.
FerexServer` additionally calls :meth:`QueryCache.clear` on its write
path so the dead generation's entries release their memory immediately
instead of aging out.

Every miss is admitted; past ``capacity`` the least recently used
entry is evicted.

The cache is **event-loop confined**: every access happens on the
server's asyncio thread (lookups on the submit path, inserts after the
dispatch coroutine resumes), so no locking is needed.  Stored arrays
are frozen copies of the served rows (the server hands callers
*writable* copies on a hit, so hit and miss results have identical
mutability); hits are bit-identical to the miss that populated them.

Hit/miss accounting is kept in two eras: *lifetime* counters
(``hits``/``misses``, never reset) and *windowed* counters
(``window_hits``/``window_misses``, reset by every :meth:`clear`), so
the exported hit rate can be read per traffic era instead of blending
across invalidations.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

# The index's integral-coercion rule, under the name the serving layer
# exports: a query canonicalises to the same int64 bytes the index
# would search, and a fractional one is refused instead of aliasing
# another query's key.
from ..index.index import as_integral as canonical_int_query

#: Cache key: (canonical query bytes, k, index write-generation).
CacheKey = Tuple[bytes, int, int]


class QueryCache:
    """Bounded LRU of ``(ids, distances)`` rows per served query.

    Parameters
    ----------
    capacity:
        Maximum resident entries; ``0`` disables caching entirely —
        the cache is inert (lookups return ``None`` without touching
        any counter, inserts are dropped).
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.evictions = 0
        # Lifetime counters: never reset.
        self.hits = 0
        self.misses = 0
        # Windowed counters: reset by every clear(), so hit_rate can
        # be read per write-generation era.
        self.window_hits = 0
        self.window_misses = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    @staticmethod
    def key(query: np.ndarray, k: int, generation: int) -> CacheKey:
        """Canonical key for one query row.

        Queries are quantised integer vectors; hashing the ``int64``
        byte image makes the key independent of the caller's input
        dtype (a list, ``int32`` array, … all map to the same entry).
        Non-integral queries raise ``ValueError`` instead of silently
        truncating into another query's key
        (:func:`canonical_int_query`).
        """
        canonical = canonical_int_query(query)
        return (canonical.tobytes(), int(k), int(generation))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Hits over lookups since construction (0.0 before traffic)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def window_hit_rate(self) -> float:
        """Hits over lookups since the last invalidation — the
        per-traffic-era rate ``/metrics`` readers usually want."""
        total = self.window_hits + self.window_misses
        return self.window_hits / total if total else 0.0

    def get(
        self, key: CacheKey
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Look up one entry, refreshing its recency.  A disabled
        (``capacity=0``) cache is inert: ``None``, no counters
        touched."""
        if self.capacity == 0:
            return None
        entry = self.peek(key)
        if entry is None:
            self.misses += 1
            self.window_misses += 1
            return None
        self.hits += 1
        self.window_hits += 1
        return entry

    def peek(
        self, key: CacheKey
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Like :meth:`get` but without touching the hit/miss counters.

        The server's *dispatch-time* probe uses this: a micro-batch row
        may have been populated by a batch that completed after this
        row's submit-time lookup missed, and serving it from the cache
        skips the executor (or worker-process) hop entirely.  Those
        late hits are accounted separately
        (:attr:`repro.serve.ServerStats.n_dispatch_cache_hits`), so the
        cache's own counters keep meaning "submit-path lookups".
        Recency still refreshes — a served entry is a used entry.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(
        self, key: CacheKey, ids: np.ndarray, distances: np.ndarray
    ) -> None:
        """Insert one served result as frozen copies, evicting the
        least recently used entries past ``capacity``."""
        if self.capacity == 0:
            return
        ids = np.array(ids)
        distances = np.array(distances)
        ids.flags.writeable = False
        distances.flags.writeable = False
        self._entries[key] = (ids, distances)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (the server's write-path invalidation) and
        start a fresh accounting window.  Lifetime counters survive."""
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self.window_hits = 0
        self.window_misses = 0

    def snapshot(self) -> dict:
        """Counters for the stats surface: lifetime and windowed
        (since-last-invalidation) accounting."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "window_hits": self.window_hits,
            "window_misses": self.window_misses,
            "window_hit_rate": self.window_hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
