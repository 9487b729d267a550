"""Serving-layer reconfiguration + the dispatch-time cache probe: online
`FerexServer.reconfigure` in-process and over the process pool,
and the new ServerStats surfaces (dispatch hits/dedup, republish and
reconfigure counters, coalescer queue-depth gauge)."""

import asyncio

import numpy as np
import pytest

from repro.index import FerexIndex
from repro.serve import FerexServer, ProcReplicaPool

DIMS = 8
BITS = 2


def binary_stored(n=32):
    # 1-bit codes so any reconfigure target in {1, 2} is legal.
    return np.random.default_rng(21).integers(0, 2, size=(n, DIMS))


def binary_queries(n=12):
    return np.random.default_rng(22).integers(0, 2, size=(n, DIMS))


def make_binary_index(seed=11):
    index = FerexIndex(
        dims=DIMS, metric="hamming", bits=BITS, bank_rows=16, seed=seed
    )
    index.add(binary_stored())
    return index


class TestServerReconfigure:
    def test_reconfigure_matches_direct_and_counts(self):
        queries = binary_queries()

        async def main():
            server = FerexServer(make_binary_index(), max_wait_ms=0.5)
            async with server:
                await asyncio.gather(
                    *(server.search(q, k=3) for q in queries)
                )
                config = await server.reconfigure(bits=1, metric="manhattan")
                assert config.metric_name == "manhattan"
                results = await asyncio.gather(
                    *(server.search(q, k=3) for q in queries)
                )
            return server, results

        server, results = asyncio.run(main())
        reference = make_binary_index()
        reference.reconfigure(bits=1, metric="manhattan")
        expected = reference.search(queries, k=3)
        np.testing.assert_array_equal(
            np.stack([r.ids for r in results]), expected.ids
        )
        np.testing.assert_array_equal(
            np.stack([r.distances for r in results]), expected.distances
        )
        snap = server.stats.snapshot()
        assert snap["n_reconfigures"] == 1
        assert server.stats.n_errors == 0

    def test_banks_argument_is_gone(self):
        """The server re-voltages the whole index only; a bank subset
        is an unknown argument, refused before the write section."""
        index = make_binary_index()
        generation = index.write_generation

        async def main():
            server = FerexServer(index, max_wait_ms=0.2)
            async with server:
                with pytest.raises(TypeError, match="banks"):
                    await server.reconfigure(bits=1, banks=[0])
            return server

        server = asyncio.run(main())
        assert index.write_generation == generation
        assert server.stats.n_reconfigures == 0

    def test_reconfigure_invalidates_cache(self):
        query = binary_queries(1)[0]

        async def main():
            server = FerexServer(make_binary_index(), max_wait_ms=0.2)
            async with server:
                await server.search(query, k=2)
                await server.search(query, k=2)  # hit, old generation
                hits_before = server.stats.n_cache_hits
                await server.reconfigure(bits=1)
                await server.search(query, k=2)  # must miss: new config
                hits_after = server.stats.n_cache_hits
                return hits_before, hits_after, len(server.cache)

        hits_before, hits_after, entries = asyncio.run(main())
        assert hits_before == 1
        assert hits_after == 1  # the post-reconfigure search missed
        assert entries == 1  # freshly populated under the new key

    def test_pooled_reconfigure_republishes(self):
        queries = binary_queries(6)

        async def main():
            index = make_binary_index()
            with ProcReplicaPool(index, n_workers=1) as pool:
                server = FerexServer(pool=pool, max_wait_ms=0.5)
                async with server:
                    before = await asyncio.gather(
                        *(server.search(q, k=2) for q in queries)
                    )
                    await server.reconfigure(bits=1)
                    assert pool.generation == index.write_generation
                    after = await asyncio.gather(
                        *(server.search(q, k=2) for q in queries)
                    )
                return server, index, before, after

        server, index, before, after = asyncio.run(main())
        assert server.stats.n_republishes >= 1
        assert server.stats.n_reconfigures == 1
        assert server.last_republish_error is None
        expected = index.search(queries, k=2)
        np.testing.assert_array_equal(
            np.stack([r.ids for r in after]), expected.ids
        )


class TestDispatchCachePath:
    def test_dispatch_probe_serves_late_hits(self):
        """A batch row whose key landed in the LRU between submit and
        flush is answered without a backend hop, and the hit shows up
        in ServerStats."""
        query = binary_queries(1)[0]

        async def main():
            index = make_binary_index()
            server = FerexServer(index, max_wait_ms=0.2)
            async with server:
                direct = await server.search(query, k=2)
                # Grey-box: drive the flush target directly with a
                # batch whose rows are already cached.
                ids, distances = await server._dispatch(
                    np.stack([query, query]), 2
                )
            return server, direct, ids, distances

        server, direct, ids, distances = asyncio.run(main())
        assert server.stats.n_dispatch_cache_hits == 2
        np.testing.assert_array_equal(ids[0], direct.ids)
        np.testing.assert_array_equal(ids[1], direct.ids)
        np.testing.assert_array_equal(distances[0], direct.distances)

    def test_identical_rows_dedupe_in_one_batch(self):
        query = binary_queries(1)[0]
        other = binary_queries(2)[1]

        async def main():
            server = FerexServer(
                make_binary_index(), max_batch_size=8, max_wait_ms=5.0
            )
            async with server:
                results = await asyncio.gather(
                    *(
                        server.search(q, k=2)
                        for q in [query, query, query, other]
                    )
                )
            return server, results

        server, results = asyncio.run(main())
        # Three identical rows collapsed to one computation.
        assert server.stats.n_dispatch_deduped >= 2
        np.testing.assert_array_equal(results[0].ids, results[1].ids)
        np.testing.assert_array_equal(results[0].ids, results[2].ids)

    def test_pool_path_hits_show_in_stats(self):
        """The ROADMAP gap this PR closes: pooled dispatch consults the
        parent LRU before the executor hop."""
        query = binary_queries(1)[0]

        async def main():
            index = make_binary_index()
            with ProcReplicaPool(index, n_workers=1) as pool:
                server = FerexServer(pool=pool, max_wait_ms=0.2)
                async with server:
                    direct = await server.search(query, k=2)
                    ids, _ = await server._dispatch(query[None], 2)
                return server, direct, ids

        server, direct, ids = asyncio.run(main())
        assert server.stats.n_dispatch_cache_hits == 1
        snap = server.stats.snapshot()
        assert snap["n_dispatch_cache_hits"] == 1
        np.testing.assert_array_equal(ids[0], direct.ids)


class TestQueueDepthGauge:
    def test_gauge_wired_and_live(self):
        async def main():
            server = FerexServer(
                make_binary_index(), max_batch_size=64, max_wait_ms=50.0
            )
            async with server:
                assert server.stats.coalescer_queue_depth == 0
                task = asyncio.create_task(
                    server.search(binary_queries(1)[0], k=1)
                )
                await asyncio.sleep(0)  # parked, not yet flushed
                depth_while_parked = server.stats.snapshot()[
                    "coalescer_queue_depth"
                ]
                await task
                depth_after = server.stats.coalescer_queue_depth
            return depth_while_parked, depth_after

        depth_while_parked, depth_after = asyncio.run(main())
        assert depth_while_parked == 1
        assert depth_after == 0
