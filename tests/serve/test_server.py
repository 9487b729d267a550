"""FerexServer end-to-end: coalesced + cached search is bit-identical
to direct ``FerexIndex.search``, stats tell the truth."""

import asyncio

import numpy as np
import pytest

from repro.core.engine import NotProgrammedError
from repro.serve import FerexServer, ServerStats


def expected_rows(index, queries, k):
    """Direct (uncoalesced, uncached) reference result."""
    return index.search(queries, k=k)


class TestBitIdentity:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("cache_size", [0, 256])
    def test_concurrent_traffic_matches_direct_search(
        self, make_index, queries, cache_size, k
    ):
        """The acceptance property: every (ids, distances) row served
        under batching + caching equals the row direct index search
        returns — including repeated queries."""
        reference = expected_rows(make_index(), queries, k)

        async def main():
            server = FerexServer(
                make_index(),
                max_batch_size=8,
                max_wait_ms=1.0,
                cache_size=cache_size,
            )
            async with server:
                # Wave 1: the full stream, all concurrent (coalesced).
                # Wave 2: every other query again — cache-hit path when
                # caching is on, re-dispatch when it is off.
                waves = []
                for stream in (queries, queries[::2]):
                    results = await asyncio.gather(
                        *(server.search(q, k=k) for q in stream)
                    )
                    waves.append(results)
            for results, expected in zip(
                waves, (reference, reference)
            ):
                wave_ids = np.stack([r.ids for r in results])
                wave_d = np.stack([r.distances for r in results])
                n = len(results)
                step = 1 if n == len(queries) else 2
                assert np.array_equal(wave_ids, expected.ids[::step])
                assert np.array_equal(
                    wave_d, expected.distances[::step]
                )
            if cache_size:
                assert server.stats.n_cache_hits >= len(queries[::2])

        asyncio.run(main())

    def test_search_many_matches_direct_batch(self, make_index, queries):
        reference = expected_rows(make_index(), queries, 2)

        async def main():
            async with FerexServer(
                make_index(), max_batch_size=16, max_wait_ms=1.0
            ) as server:
                outcome = await server.search_many(queries, k=2)
            assert np.array_equal(outcome.ids, reference.ids)
            assert np.array_equal(
                outcome.distances, reference.distances
            )

        asyncio.run(main())

    def test_padding_served_beyond_live_rows(self, make_index, queries):
        async def main():
            async with FerexServer(
                make_index(), max_wait_ms=0.5
            ) as server:
                outcome = await server.search(queries[0], k=50)
            assert outcome.ids.shape == (50,)
            assert (outcome.ids[40:] == -1).all()
            assert np.isinf(outcome.distances[40:]).all()

        asyncio.run(main())

    def test_interleaved_writes_and_reads_stay_consistent(
        self, make_index, stored, queries, rng
    ):
        """Mutations mid-traffic: every post-write read reflects the
        write."""

        async def main():
            server = FerexServer(
                make_index(), max_batch_size=4, max_wait_ms=0.5
            )
            async with server:
                for wave in range(3):
                    extra = rng.integers(0, 4, size=(2, 8))
                    new_ids = await server.add(extra)
                    assert len(new_ids) == 2
                    await server.remove([int(new_ids[0])])
                    outcome = await server.search_many(queries, k=3)
                    direct = server.index.search(queries, k=3)
                    assert np.array_equal(outcome.ids, direct.ids)
                    assert np.array_equal(
                        outcome.distances, direct.distances
                    )

        asyncio.run(main())


class TestLifecycleAndErrors:
    def test_search_on_empty_index_propagates(self, make_index):
        async def main():
            async with FerexServer(
                make_index(preload=False), max_wait_ms=0.5
            ) as server:
                with pytest.raises(NotProgrammedError):
                    await server.search(np.zeros(8, dtype=int), k=1)
            assert server.stats.n_errors == 1

        asyncio.run(main())

    def test_closed_server_refuses_requests(self, make_index, queries):
        async def main():
            server = FerexServer(make_index(), max_wait_ms=0.5)
            await server.close()
            with pytest.raises(RuntimeError, match="closed"):
                await server.search(queries[0], k=1)
            with pytest.raises(RuntimeError, match="closed"):
                await server.search_many(queries, k=1)
            with pytest.raises(RuntimeError, match="closed"):
                # The empty-batch fast path honours the contract too.
                await server.search_many(
                    np.empty((0, 8), dtype=int), k=1
                )

        asyncio.run(main())

    def test_query_validation(self, make_index, queries):
        async def main():
            async with FerexServer(
                make_index(), max_wait_ms=0.5
            ) as server:
                with pytest.raises(ValueError):
                    await server.search(queries, k=1)  # 2-D input
                with pytest.raises(ValueError):
                    await server.search(queries[0], k=0)
                with pytest.raises(ValueError):
                    await server.search(queries[0][:-1], k=1)  # short
                bad = np.array(queries[0])
                bad[0] = 99  # outside the alphabet
                with pytest.raises(ValueError):
                    await server.search(bad, k=1)

        asyncio.run(main())

    def test_invalid_query_cannot_poison_batch_mates(
        self, make_index, queries
    ):
        """Regression: a malformed query is rejected before it parks in
        the coalescer, so callers coalesced alongside it still get
        their answers (and never hang)."""

        async def main():
            async with FerexServer(
                make_index(), max_batch_size=8, max_wait_ms=5.0
            ) as server:
                bad_value = np.array(queries[1])
                bad_value[0] = 99
                results = await asyncio.wait_for(
                    asyncio.gather(
                        server.search(queries[0], k=2),
                        server.search(bad_value, k=2),
                        server.search(queries[1][:-1], k=2),
                        server.search(queries[2], k=2),
                        return_exceptions=True,
                    ),
                    timeout=5,
                )
                assert isinstance(results[1], ValueError)
                assert isinstance(results[2], ValueError)
                direct = server.index.search(
                    np.stack([queries[0], queries[2]]), k=2
                )
                assert np.array_equal(results[0].ids, direct.ids[0])
                assert np.array_equal(results[3].ids, direct.ids[1])

        asyncio.run(main())


class TestStatsSurface:
    def test_counters_add_up(self, make_index, queries):
        async def main():
            server = FerexServer(
                make_index(), max_batch_size=8, max_wait_ms=1.0,
                cache_size=256,
            )
            async with server:
                await asyncio.gather(
                    *(server.search(q, k=2) for q in queries)
                )
                await asyncio.gather(
                    *(server.search(q, k=2) for q in queries)
                )
            snap = server.stats.snapshot()
            assert snap["n_requests"] == 2 * len(queries)
            # Second wave is answered from the cache.
            assert snap["n_cache_hits"] >= len(queries)
            assert 0 < snap["cache_hit_rate"] <= 1
            dispatched = sum(
                int(size) * count
                for size, count in snap["batch_size_histogram"].items()
            )
            assert dispatched == snap["n_requests"] - snap["n_cache_hits"]
            assert sum(
                snap["batch_size_histogram"].values()
            ) == snap["n_batches"]
            assert snap["qps"] > 0
            assert snap["latency"]["count"] == snap["n_requests"]
            assert (
                snap["latency"]["p50"]
                <= snap["latency"]["p95"]
                <= snap["latency"]["max"]
            )
            assert "FerexServer stats" in server.stats.format()

        asyncio.run(main())

    def test_injected_clock_drives_qps(self):
        now = [0.0]
        stats = ServerStats(clock=lambda: now[0])
        for _ in range(10):
            stats.record_request(0.001)
        now[0] = 2.0
        assert stats.qps == pytest.approx(5.0)
        stats.reset()
        assert stats.n_requests == 0 and stats.qps == 0.0

    def test_latency_summary_shape(self):
        stats = ServerStats(max_latency_samples=4)
        for value in (0.1, 0.2, 0.3, 0.4, 0.5):
            stats.record_request(value)
        snapshot = stats.snapshot()["latency"]
        assert snapshot["count"] == 4  # ring buffer dropped the oldest
        assert snapshot["max"] == pytest.approx(0.5)
        with pytest.raises(ValueError):
            ServerStats(max_latency_samples=0)
