"""QueryCache: LRU behaviour, keying, write-generation invalidation."""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import FerexServer, QueryCache


def entry(i):
    return np.array([i]), np.array([float(i)])


class TestLRU:
    def test_hit_returns_stored_rows(self):
        cache = QueryCache(capacity=4)
        key = QueryCache.key(np.array([1, 2, 3]), 2, 0)
        assert cache.get(key) is None
        cache.put(key, *entry(7))
        ids, distances = cache.get(key)
        assert ids.tolist() == [7] and distances.tolist() == [7.0]
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = QueryCache(capacity=2)
        keys = [
            QueryCache.key(np.array([i]), 1, 0) for i in range(3)
        ]
        cache.put(keys[0], *entry(0))
        cache.put(keys[1], *entry(1))
        assert cache.get(keys[0]) is not None  # refresh 0: 1 is now LRU
        cache.put(keys[2], *entry(2))
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[2]) is not None
        assert cache.evictions == 1

    def test_key_canonicalises_dtype_but_not_value(self):
        base = QueryCache.key(np.array([1, 2], dtype=np.int32), 1, 0)
        assert QueryCache.key([1, 2], 1, 0) == base
        assert QueryCache.key(np.array([1, 3]), 1, 0) != base
        assert QueryCache.key(np.array([1, 2]), 2, 0) != base
        assert QueryCache.key(np.array([1, 2]), 1, 1) != base

    def test_key_refuses_fractional_floats(self):
        """Regression: the old int64 cast truncated 1.2 and 1.7 to the
        same key, so two different queries aliased to one cache slot."""
        with pytest.raises(ValueError, match="fractional"):
            QueryCache.key(np.array([1.2, 0.0]), 1, 0)
        with pytest.raises(ValueError, match="fractional"):
            QueryCache.key([1.7, 0.0], 1, 0)
        with pytest.raises(ValueError):
            QueryCache.key(np.array([np.nan, 0.0]), 1, 0)
        with pytest.raises(ValueError):
            QueryCache.key(np.array(["a", "b"]), 1, 0)

    def test_integral_floats_key_like_ints(self):
        as_float = QueryCache.key(np.array([1.0, 2.0]), 1, 0)
        as_int = QueryCache.key(np.array([1, 2]), 1, 0)
        as_bool = QueryCache.key(np.array([True, False]), 1, 0)
        assert as_float == as_int
        assert as_bool == QueryCache.key(np.array([1, 0]), 1, 0)

    def test_server_rejects_fractional_query(self, make_index):
        async def main():
            async with FerexServer(
                make_index(), max_batch_size=4, max_wait_ms=0.5
            ) as server:
                bad = np.full(8, 1.5)
                with pytest.raises(ValueError, match="fractional"):
                    await server.search(bad, k=2)
                with pytest.raises(ValueError, match="fractional"):
                    await server.search_many(bad[None], k=2)

        asyncio.run(main())

    def test_windowed_counters_reset_on_clear(self):
        """Regression: hit_rate used to blend pre- and post-write eras.
        Lifetime counters persist across clear(); the windowed pair
        restarts so window_hit_rate reflects only the current era."""
        cache = QueryCache(capacity=4)
        key = QueryCache.key(np.array([1]), 1, 0)
        cache.get(key)  # miss
        cache.put(key, *entry(1))
        cache.get(key)  # hit
        assert cache.hits == 1 and cache.misses == 1
        assert cache.window_hits == 1 and cache.window_misses == 1
        cache.clear()
        assert cache.hits == 1 and cache.misses == 1  # lifetime kept
        assert cache.window_hits == 0 and cache.window_misses == 0
        cache.get(key)  # miss in the new era
        snap = cache.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 2
        assert snap["window_hits"] == 0 and snap["window_misses"] == 1
        assert snap["hit_rate"] == pytest.approx(1 / 3)
        assert snap["window_hit_rate"] == 0.0
        assert snap["invalidations"] == 1

    def test_clear_without_entries_not_counted(self):
        cache = QueryCache(capacity=4)
        cache.clear()
        assert cache.snapshot()["invalidations"] == 0

    def test_capacity_zero_disables_caching(self):
        cache = QueryCache(capacity=0)
        key = QueryCache.key(np.array([1]), 1, 0)
        cache.put(key, *entry(1))
        assert len(cache) == 0 and cache.get(key) is None
        with pytest.raises(ValueError):
            QueryCache(capacity=-1)

    def test_capacity_zero_cache_is_fully_inert(self):
        """A disabled cache must not mutate counters: a 0% hit rate
        from a cache that can't hold anything is noise, not signal."""
        cache = QueryCache(capacity=0)
        key = QueryCache.key(np.array([1]), 1, 0)
        for _ in range(5):
            assert cache.get(key) is None
            assert cache.peek(key) is None
        cache.put(key, *entry(1))
        cache.clear()
        snap = cache.snapshot()
        assert cache.hits == cache.misses == 0
        assert snap["hits"] == snap["misses"] == 0
        assert snap["window_hits"] == snap["window_misses"] == 0
        assert snap["invalidations"] == 0
        assert cache.hit_rate == 0.0

    def test_put_of_resident_key_refreshes_without_evicting(self):
        cache = QueryCache(capacity=2)
        keys = [QueryCache.key(np.array([i]), 1, 0) for i in range(3)]
        cache.put(keys[0], *entry(0))
        cache.put(keys[1], *entry(1))
        cache.put(keys[0], *entry(5))  # re-put: 1 is now LRU, no eviction
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.peek(keys[0])[0].tolist() == [5]
        cache.put(keys[2], *entry(2))
        assert cache.peek(keys[1]) is None
        assert cache.peek(keys[0]) is not None

    def test_peek_refreshes_recency_without_counting(self):
        cache = QueryCache(capacity=2)
        keys = [QueryCache.key(np.array([i]), 1, 0) for i in range(3)]
        cache.put(keys[0], *entry(0))
        cache.put(keys[1], *entry(1))
        assert cache.peek(keys[0]) is not None  # 1 is now LRU
        assert cache.peek(keys[2]) is None
        cache.put(keys[2], *entry(2))
        assert cache.peek(keys[1]) is None
        assert cache.hits == cache.misses == 0

    def test_put_stores_copies_of_the_callers_rows(self):
        cache = QueryCache(capacity=2)
        key = QueryCache.key(np.array([1]), 1, 0)
        ids, distances = entry(4)
        cache.put(key, ids, distances)
        ids[0], distances[0] = 99, 99.0
        assert ids.flags.writeable  # the caller's arrays stay theirs
        cached_ids, cached_distances = cache.get(key)
        assert cached_ids.tolist() == [4]
        assert cached_distances.tolist() == [4.0]

    def test_evictions_count_every_overflow(self):
        cache = QueryCache(capacity=3)
        for i in range(10):
            cache.put(QueryCache.key(np.array([i]), 1, 0), *entry(i))
        assert len(cache) == 3 and cache.evictions == 7
        survivors = [
            i
            for i in range(10)
            if cache.peek(QueryCache.key(np.array([i]), 1, 0)) is not None
        ]
        assert survivors == [7, 8, 9]
        snap = cache.snapshot()
        assert snap["size"] == 3 and snap["capacity"] == 3
        assert snap["evictions"] == 7

    def test_cached_rows_are_frozen(self):
        cache = QueryCache(capacity=2)
        key = QueryCache.key(np.array([1]), 1, 0)
        cache.put(key, *entry(3))
        ids, _ = cache.get(key)
        with pytest.raises(ValueError):
            ids[0] = 99

    def test_hit_and_miss_results_equally_mutable(
        self, make_index, queries
    ):
        """A caller mutating its result in place must see identical
        behaviour cold and warm — and never corrupt the cache."""

        async def main():
            async with FerexServer(
                make_index(), max_batch_size=4, max_wait_ms=0.5
            ) as server:
                miss = await server.search(queries[0], k=2)
                miss.ids[0] = -77  # writable on a miss...
                hit = await server.search(queries[0], k=2)
                assert hit.ids[0] != -77  # ...without poisoning anyone
                hit.ids[0] = -88  # ...and equally writable on a hit
                again = await server.search(queries[0], k=2)
                assert again.ids[0] not in (-77, -88)

        asyncio.run(main())


class TestServerInvalidation:
    """Every index mutation must invalidate served results — both via
    the generation key component and the explicit write-path clear."""

    def run_mutation(self, make_index, stored, queries, mutate):
        async def main():
            async with FerexServer(
                make_index(), max_batch_size=8, max_wait_ms=1
            ) as server:
                query = queries[0]
                before = await server.search(query, k=3)
                again = await server.search(query, k=3)
                assert server.cache.hits >= 1
                assert np.array_equal(before.ids, again.ids)
                await mutate(server)
                assert len(server.cache) == 0  # explicit clear
                after = await server.search(query, k=3)
                expected = server.index.search(
                    query[None], k=3
                )
                assert np.array_equal(after.ids, expected.ids[0])
                assert np.array_equal(
                    after.distances, expected.distances[0]
                )
                return before, after

        return asyncio.run(main())

    def test_add_invalidates(self, make_index, stored, queries, rng):
        # A new vector equal to the query must displace the old winner.
        query = queries[0]

        async def mutate(server):
            await server.add(query[None])

        before, after = self.run_mutation(
            make_index, stored, queries, mutate
        )
        assert after.ids[0] == 40  # the vector just added wins
        assert before.ids[0] != after.ids[0]

    def test_remove_invalidates(self, make_index, stored, queries):
        async def mutate(server):
            winner = int(
                (await server.search(queries[0], k=1)).ids[0]
            )
            await server.remove([winner])

        before, after = self.run_mutation(
            make_index, stored, queries, mutate
        )
        assert before.ids[0] not in after.ids

    def test_compact_invalidates(self, make_index, stored, queries):
        async def mutate(server):
            await server.remove([1, 2, 3])
            await server.compact()

        self.run_mutation(make_index, stored, queries, mutate)

    def test_generation_key_shields_stale_entries(
        self, make_index, queries
    ):
        """Even without the explicit clear, a stale entry is unreachable:
        the lookup key carries the current write generation."""
        index = make_index()
        cache = QueryCache(capacity=8)
        key_before = QueryCache.key(
            queries[0], 3, index.write_generation
        )
        outcome = index.search(queries[0][None], k=3)
        cache.put(key_before, outcome.ids[0], outcome.distances[0])
        index.add(queries[0][None])
        key_after = QueryCache.key(
            queries[0], 3, index.write_generation
        )
        assert key_after != key_before
        assert cache.get(key_after) is None


class ReferenceLru:
    """The LRU the cache promises, written the obvious way: a list of
    keys oldest-first, admit on every put, evict from the front."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.order = []
        self.values = {}
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def touch(self, key):
        self.order.remove(key)
        self.order.append(key)

    def get(self, key):
        if key not in self.values:
            self.misses += 1
            return None
        self.hits += 1
        self.touch(key)
        return self.values[key]

    def peek(self, key):
        if key in self.values:
            self.touch(key)
        return self.values.get(key)

    def put(self, key, value):
        if key in self.values:
            self.order.remove(key)
        self.order.append(key)
        self.values[key] = value
        while len(self.order) > self.capacity:
            del self.values[self.order.pop(0)]
            self.evictions += 1

    def clear(self):
        if self.order:
            self.invalidations += 1
        self.order, self.values = [], {}


#: Few distinct keys so sequences keep revisiting residents; clears rare
#: enough that eviction order gets exercised between them.
operation_st = st.tuples(
    st.sampled_from(["get", "peek", "put"] * 3 + ["clear"]),
    st.integers(0, 3),
)


class TestAgainstReferenceLru:
    @pytest.mark.parametrize("capacity", [1, 2, 5])
    @given(operations=st.lists(operation_st, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_any_operation_sequence_matches_the_reference(
        self, capacity, operations
    ):
        cache = QueryCache(capacity=capacity)
        model = ReferenceLru(capacity)
        for step, (op, i) in enumerate(operations):
            key = QueryCache.key(np.array([i]), 1, 0)
            if op == "put":
                cache.put(key, *entry(step))
                model.put(key, step)
            elif op == "clear":
                cache.clear()
                model.clear()
            else:
                got = getattr(cache, op)(key)
                want = getattr(model, op)(key)
                if want is None:
                    assert got is None
                else:
                    assert got[0].tolist() == [want]
            assert list(cache._entries) == model.order
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"]) == (model.hits, model.misses)
        assert snap["evictions"] == model.evictions
        assert snap["invalidations"] == model.invalidations


#: -1 is a write; query indices repeat with Zipf-like multiplicity so
#: streams revisit a hot head, as the cache's traffic does.
EVENT_POOL = [0] * 8 + [1] * 4 + [2] * 2 + list(range(3, 12)) + [-1] * 3


class TestServedThroughTheCache:
    @pytest.mark.parametrize("cache_size", [1, 4])
    @given(
        stream=st.lists(st.sampled_from(EVENT_POOL), min_size=4, max_size=30)
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_answers_bit_identical_across_writes(
        self, make_index, cache_size, stream
    ):
        """Under any request stream interleaved with writes, every
        served row equals a direct search on a mirror index, every write
        empties the cache, and hits/evictions are exactly what an LRU of
        ``cache_size`` predicts for the stream."""
        rng = np.random.default_rng(29)
        universe = rng.integers(0, 4, size=(12, 8))
        writes = iter(rng.integers(0, 4, size=(len(stream), 8)))
        mirror = make_index()
        model = ReferenceLru(cache_size)

        async def main():
            async with FerexServer(
                make_index(),
                max_batch_size=4,
                max_wait_ms=0.2,
                cache_size=cache_size,
            ) as server:
                for event in stream:
                    if event == -1:
                        row = next(writes)[None]
                        await server.add(row)
                        mirror.add(row)
                        model.clear()
                        assert len(server.cache) == 0
                        continue
                    outcome = await server.search(universe[event], k=2)
                    expected = mirror.search(universe[event][None], k=2)
                    assert np.array_equal(outcome.ids, expected.ids[0])
                    assert np.array_equal(
                        outcome.distances, expected.distances[0]
                    )
                    if model.get(event) is None:
                        model.put(event, event)
                snap = server.stats.snapshot()["cache"]
                assert (snap["hits"], snap["misses"]) == (
                    model.hits, model.misses
                )
                assert snap["evictions"] == model.evictions
                assert snap["invalidations"] == model.invalidations

        asyncio.run(main())
