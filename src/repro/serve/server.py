"""`FerexServer`: the async serving facade over one FeReX index.

The request path composes the three serving primitives::

                      submit                   flush
    search(query, k) ───────> RequestCoalescer ─────> micro-batch
          │ hit?                                        │
          ▼                                             ▼
      QueryCache <───── populate rows ────── ReplicaRouter.read()
    (query, k, write-generation)                        │
                                                        ▼
                                            FerexIndex.search (batched)

* a request first probes the LRU :class:`~repro.serve.cache.QueryCache`
  (keyed on quantised query bytes, ``k`` and the index
  write-generation);
* on a miss it parks in the :class:`~repro.serve.coalescer.
  RequestCoalescer`, whose flush window adapts to the observed
  arrival and service rates: bursts batch, and a request confirmed
  alone under sparse traffic dispatches at once, inline on the loop;
* micro-batches are admitted as reads by the
  :class:`~repro.serve.router.ReplicaRouter` and the batched index
  search runs on a worker thread (``run_in_executor``), so the event
  loop keeps accepting and coalescing requests while the array
  simulation crunches.  It runs on one BLAS thread
  (:func:`repro.core.blas.one_thread`): a served batch's products are
  small, and a second OpenBLAS thread only spins between them;
* writes (``add``/``remove``/``compact``/``reconfigure``) go through
  the router's single-writer path and clear the cache.

``pool=`` hands micro-batches to a :class:`~repro.serve.procpool.
ProcReplicaPool` — N worker processes attached zero-copy to the
index's shared-memory segments — for true parallelism beyond the GIL;
the write path then republishes the segments inside the same
single-writer critical section, so a completed write is visible to
every worker before any new read is admitted.

Every answer is bit-identical to calling ``FerexIndex.search``
directly: batching rides the index's bit-identical batch path, cached
rows are frozen copies of served results, and pool workers attach a
fingerprint-verified copy of the index.  ``tests/serve/`` asserts
exactly this.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.blas import one_thread
from ..index import FerexIndex, SearchOutcome
from .cache import QueryCache, canonical_int_query
from .coalescer import RequestCoalescer
from .procpool import PoolBrokenError, ProcReplicaPool
from .router import ReplicaRouter
from .stats import ServerStats


def _served_search(
    index: FerexIndex, queries: np.ndarray, k: int
) -> SearchOutcome:
    """``index.search`` as a served read: on one BLAS thread
    (:func:`repro.core.blas.one_thread`), whose second one would only
    spin between the batch's small products."""
    with one_thread():
        return index.search(queries, k)


class FerexServer:
    """Asyncio front-end: request coalescing + query cache over one index.

    Parameters
    ----------
    index:
        The :class:`FerexIndex` to serve.  Optional when ``pool`` is
        given (the pool's index is used).
    max_batch_size / max_wait_ms:
        Coalescing knobs: flush a micro-batch at this size, or when its
        adaptive window closes — never later than ``max_wait_ms`` after
        its oldest request (see :class:`RequestCoalescer`).
    cache_size:
        LRU query-cache capacity; ``0`` disables caching.
    pool:
        Optional :class:`ProcReplicaPool` serving the read path from
        worker processes.  Its index must be the server's index; the
        server republishes the pool on every write.  The caller owns
        the pool's lifecycle.
    """

    def __init__(
        self,
        index: Optional[FerexIndex] = None,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        cache_size: int = 1024,
        pool: Optional[ProcReplicaPool] = None,
    ):
        if index is None:
            if pool is None:
                raise ValueError("need an index, a pool, or both")
            index = pool.index
        if not isinstance(index, FerexIndex):
            raise TypeError(
                f"FerexServer serves one FerexIndex, got "
                f"{type(index).__name__}"
            )
        self._router = ReplicaRouter(index)
        self._pool = pool
        if pool is not None:
            if index is not pool.index:
                raise ValueError(
                    "a pooled server serves the pool's primary index "
                    "(writes republish through it)"
                )
            if pool.generation != pool.index.write_generation:
                raise ValueError(
                    f"pool serves generation {pool.generation} but its "
                    f"primary is at {pool.index.write_generation}: the "
                    "index was mutated after the pool published; call "
                    "pool.republish() before putting a server in front"
                )
        self._republish_error: Optional[BaseException] = None
        self.stats = ServerStats()
        self._cache = QueryCache(cache_size)
        # /metrics and bench artifacts read the cache through the stats
        # snapshot.
        self.stats.cache_probe = self._cache.snapshot
        # The backlog gauges: stats snapshots read the coalescer's
        # pending-queue depth (and its EWMAs / deadline drops) live
        # through these probes.
        self.stats.queue_depth_probe = lambda: self._coalescer.n_pending
        self.stats.register_gauge(
            "coalescer_ewma_service_s",
            lambda: self._coalescer.ewma_service_s,
        )
        self.stats.register_gauge(
            "coalescer_ewma_gap_s",
            lambda: self._coalescer.ewma_gap_s,
        )
        self.stats.register_gauge(
            "n_deadline_drops",
            lambda: self._coalescer.n_deadline_drops,
        )
        # Dispatch-transport counters: how many pooled micro-batches
        # rode the shared-memory slabs vs the pickle pipe (both read 0
        # on an unpooled server, so /metrics always carries the keys).
        self.stats.register_gauge(
            "n_slab_dispatches",
            lambda: (
                0 if self._pool is None else self._pool.n_slab_dispatches
            ),
        )
        self.stats.register_gauge(
            "n_pickle_fallbacks",
            lambda: (
                0 if self._pool is None else self._pool.n_pickle_fallbacks
            ),
        )
        self._coalescer = RequestCoalescer(
            self._dispatch,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            on_batch=self.stats.record_batch,
            # Only the coalescer's confirmed-sparse singleton fast path
            # may block the loop with a direct search; a pooled read is
            # pipe-bound and stays on the executor regardless.
            inline_dispatch=self._dispatch_inline if pool is None else None,
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache(self) -> QueryCache:
        return self._cache

    @property
    def coalescer(self) -> RequestCoalescer:
        return self._coalescer

    @property
    def pool(self) -> Optional[ProcReplicaPool]:
        return self._pool

    @property
    def index(self) -> FerexIndex:
        return self._router.index

    @property
    def write_generation(self) -> int:
        """The index's mutation epoch (cache-key component)."""
        return self.index.write_generation

    def __repr__(self) -> str:
        return (
            f"FerexServer(max_batch_size="
            f"{self._coalescer.max_batch_size}, "
            f"cache={self._cache.capacity}, pooled={self._pool is not None})"
        )

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    async def search(
        self,
        query: np.ndarray,
        k: int = 1,
        deadline: Optional[float] = None,
    ) -> SearchOutcome:
        """Serve one query: a :class:`SearchOutcome` of ``(k,)`` ids and
        distances, bit-identical to ``index.search(query[None], k)``.

        Concurrent callers coalesce into micro-batches automatically;
        repeated queries within one write-generation are answered from
        the LRU cache.

        ``deadline`` is an absolute ``loop.time()`` instant propagated
        into the coalescer: a request still parked when it passes is
        rejected with :class:`~repro.serve.coalescer.
        DeadlineExceededError` instead of being dispatched.  Cache hits
        answer regardless (they are free).
        """
        if self._closed:
            raise RuntimeError("server is closed")
        # Canonicalise to int64, *rejecting* fractional values — a
        # silent dtype=int cast would truncate two distinct float
        # queries onto one cache key (and one search), serving the
        # second caller the first one's rows.
        query = canonical_int_query(query)
        # Full per-request validation happens *before* the query parks
        # in the coalescer: a batched dispatch validates whole batches,
        # and one malformed query must never fail the innocent callers
        # coalesced alongside it.
        index = self.index
        if query.shape != (index.dims,):
            raise ValueError(
                f"search() serves one ({index.dims},) query, got "
                f"{query.shape}"
            )
        hi = 1 << index.bits
        if query.min() < 0 or query.max() >= hi:
            raise ValueError(f"query values outside [0, {hi})")
        if k < 1:
            raise ValueError("k must be >= 1")
        start = time.perf_counter()
        if self._cache.capacity:
            key = QueryCache.key(query, k, index.write_generation)
            entry = self._cache.get(key)
            if entry is not None:
                self.stats.record_request(
                    time.perf_counter() - start, cache_hit=True
                )
                # Writable copies, like the miss path hands out: a
                # caller mutating its result in place must behave the
                # same whether the cache was warm or not (and must
                # never corrupt the stored entry).
                return SearchOutcome(
                    ids=entry[0].copy(), distances=entry[1].copy()
                )
        try:
            ids, distances = await self._coalescer.submit(
                query, k, deadline=deadline
            )
        except Exception:
            self.stats.record_error()
            raise
        self.stats.record_request(time.perf_counter() - start)
        return SearchOutcome(ids=ids, distances=distances)

    async def search_many(
        self,
        queries: np.ndarray,
        k: int = 1,
        deadline: Optional[float] = None,
    ) -> SearchOutcome:
        """Serve a whole batch concurrently (one task per query, so the
        batch coalesces with any other traffic in flight); returns
        stacked ``(n, k)`` outcomes in query order."""
        if self._closed:
            raise RuntimeError("server is closed")
        queries = canonical_int_query(queries)
        if queries.ndim != 2:
            raise ValueError(
                f"search_many() takes (n, dims) queries, got "
                f"{queries.shape}"
            )
        if len(queries) == 0:
            # Even the empty batch goes through the router's read
            # admission: it must respect writer exclusion like every
            # other read.
            async with self._router.read() as index:
                return index.search(queries, k=k)
        results = await asyncio.gather(
            *(self.search(query, k, deadline=deadline) for query in queries)
        )
        return SearchOutcome(
            ids=np.stack([r.ids for r in results]),
            distances=np.stack([r.distances for r in results]),
        )

    async def _dispatch_inline(self, queries: np.ndarray, k: int):
        """Dispatch variant for the coalescer's sparse-traffic
        singleton fast path: the search runs on the event loop itself.
        The loop stalls for exactly the answer's own latency, which is
        acceptable precisely because the fast path only fires when
        nothing else is in flight — timer- and size-triggered batches
        (even size-1 k-groups inside a burst) never come through here.
        """
        return await self._dispatch(queries, k, inline=True)

    async def _run_search(
        self, index: FerexIndex, queries: np.ndarray, k: int, inline: bool
    ) -> SearchOutcome:
        """Evaluate one (sub-)batch on the right substrate: a pool
        worker process, inline on the loop (sparse singleton fast
        path), or the default executor thread — the last two on one
        BLAS thread."""
        if self._pool is not None:
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None, self._pool.search, queries, k
            )
        if inline:
            return _served_search(index, queries, k)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, _served_search, index, queries, k
        )

    async def _dispatch(
        self, queries: np.ndarray, k: int, inline: bool = False
    ):
        """Coalescer flush target: probe the LRU once more, dedupe the
        remaining rows, run the shrunken micro-batch off-loop (on a
        worker process when pooled), populate the cache.

        The dispatch-time probe matters most on the pool path — a row
        already populated by a batch that completed after this row's
        submit-time miss would otherwise still pay the executor hop
        *and* a worker round-trip — and intra-batch dedupe means a
        burst of identical queries coalesced into one flush computes
        once and fans out.
        """
        index = await self._router.acquire_read()
        try:
            # The generation is stable for the whole batch: writers are
            # excluded while any read is admitted.
            generation = index.write_generation
            pool = self._pool
            if pool is not None and pool.generation != generation:
                # Guarded at construction and re-synced by every server
                # write (republish runs inside the single-writer
                # critical section; failure poisons the pool) — this
                # catches the remaining hole, an out-of-band index
                # mutation mid-serve.  An epoch mismatch must never
                # serve: the cache would file stale rows under the new
                # generation.
                raise PoolBrokenError(
                    f"pool serves generation {pool.generation}, "
                    f"primary is at {generation}; refusing stale reads"
                )
            if not self._cache.capacity:
                outcome = await self._run_search(index, queries, k, inline)
                return outcome.ids, outcome.distances
            n = len(queries)
            keys = [QueryCache.key(query, k, generation) for query in queries]
            hits = {}
            for row, key in enumerate(keys):
                entry = self._cache.peek(key)
                if entry is not None:
                    hits[row] = entry
            if hits:
                self.stats.record_dispatch_hits(len(hits))
            # Identical rows compute once: lead row per distinct key.
            rows_by_key: dict = {}
            for row in range(n):
                if row not in hits:
                    rows_by_key.setdefault(keys[row], []).append(row)
            lead_rows = [rows[0] for rows in rows_by_key.values()]
            deduped = (n - len(hits)) - len(lead_rows)
            if deduped:
                self.stats.record_dispatch_dedup(deduped)
            if not hits and len(lead_rows) == n:
                # The common cold-batch case: nothing to reassemble.
                outcome = await self._run_search(index, queries, k, inline)
                for row, key in enumerate(keys):
                    self._cache.put(
                        key, outcome.ids[row], outcome.distances[row]
                    )
                return outcome.ids, outcome.distances
            if lead_rows:
                outcome = await self._run_search(
                    index, queries[np.asarray(lead_rows)], k, inline
                )
                for lead, key in enumerate(rows_by_key):
                    self._cache.put(
                        key, outcome.ids[lead], outcome.distances[lead]
                    )
            ids = np.empty((n, k), dtype=np.int64)
            distances = np.empty((n, k), dtype=float)
            for row, entry in hits.items():
                ids[row] = entry[0]
                distances[row] = entry[1]
            for lead, rows in enumerate(rows_by_key.values()):
                for row in rows:
                    ids[row] = outcome.ids[lead]
                    distances[row] = outcome.distances[lead]
            return ids, distances
        finally:
            self._router.release_read()

    # ------------------------------------------------------------------
    # Write path (single writer, cache invalidated)
    # ------------------------------------------------------------------
    async def _write(self, mutate: Callable[[FerexIndex], object]):
        """Run one mutation through the router's single-writer path,
        republishing the process pool (when present) inside the same
        critical section — readers re-admitted after a write therefore
        always see it, whether they search in-process or on a worker
        process.

        The write contract is atomic-error: an exception means nothing
        changed (index mutations are atomic, and republish only runs
        after a successful mutation).  A republish failure therefore
        does *not* fail the write — the mutation is applied and
        durable, and raising would invite callers to retry it into
        duplicates.  Instead the error is kept on
        :attr:`last_republish_error` (and counted in the stats) while
        the read path stays fenced: a poisoned pool raises
        :class:`PoolBrokenError` from every search, and a pool left on
        the old generation trips the epoch guard in ``_dispatch``.  A
        later successful write re-syncs the pool.
        """
        if self._pool is None:
            return await self._router.write(mutate)
        pool = self._pool

        def mutate_then_republish(index: FerexIndex):
            # Runs on an executor thread (the router off-loads
            # mutations), so no stats or server-attribute writes here —
            # the outcome is returned to the loop thread instead.
            result = mutate(index)
            try:
                pool.republish()
            except Exception as exc:
                return result, exc
            return result, None

        result, republish_error = await self._router.write(
            mutate_then_republish
        )
        self._republish_error = republish_error
        if republish_error is not None:
            self.stats.record_error()
        else:
            self.stats.record_republish()
        return result

    @property
    def last_republish_error(self) -> Optional[BaseException]:
        """The most recent write's pool-republish failure (``None``
        after a clean write).  The write itself succeeded; reads are
        fenced until the pool re-syncs."""
        return self._republish_error

    async def add(
        self,
        vectors: np.ndarray,
        ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Store vectors; returns the assigned ids."""
        # Cleared in a finally: a failed write mutated nothing (index
        # mutations are atomic), so dropping the cache is merely
        # conservative.
        try:
            return await self._write(
                lambda index: index.add(vectors, ids=ids)
            )
        finally:
            self._cache.clear()

    async def remove(self, ids: Sequence[int]) -> int:
        """Tombstone ids."""
        try:
            return await self._write(lambda index: index.remove(ids))
        finally:
            self._cache.clear()

    async def compact(self) -> None:
        """Physically re-program the live set."""
        try:
            await self._write(lambda index: index.compact())
        finally:
            self._cache.clear()

    async def reconfigure(self, bits: Optional[int] = None, metric=None):
        """Re-voltage the index at a new (metric, bits) — online, under
        live traffic.

        Rides the same single-writer critical section as ``add``: reads
        drain, the index re-programs its banks from the retained stored
        codes (:meth:`repro.index.FerexIndex.reconfigure`), the process
        pool (when present) republishes the new-generation segments,
        and only then are reads re-admitted — so every request is
        answered either entirely at the old config or entirely at the
        new one, never a mix.  The
        generation bump makes all cached results unreachable; the
        explicit cache clear just releases their memory at once.
        """
        try:
            result = await self._write(
                lambda index: index.reconfigure(bits=bits, metric=metric)
            )
        finally:
            self._cache.clear()
        self.stats.record_reconfigure()
        return result

    async def reconfigure_routing(
        self,
        top_p: Optional[int] = None,
        n_clusters: Optional[int] = None,
    ):
        """Move the routed backend's probe width and/or cluster count —
        online, under live traffic
        (:meth:`repro.index.FerexIndex.reconfigure_routing`).

        Same discipline as :meth:`reconfigure`: single-writer critical
        section, pool republish, generation-bumped
        cache invalidation — a request is routed entirely under the old
        geometry or entirely under the new one.
        """
        try:
            result = await self._write(
                lambda index: index.reconfigure_routing(
                    top_p=top_p, n_clusters=n_clusters
                )
            )
        finally:
            self._cache.clear()
        self.stats.record_reconfigure()
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Drain in-flight batches and refuse further requests."""
        if self._closed:
            return
        self._closed = True
        await self._coalescer.close()

    async def __aenter__(self) -> "FerexServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
