"""The coalescer queue-depth gauge — the ``/metrics`` backlog — under
concurrent load: consistent with the pending set while parked, monotone
through a drain, zero after it."""

import asyncio

from repro.serve import FerexServer


def test_gauge_counts_parked_requests_and_drains_to_zero(
    make_index, queries
):
    async def main():
        async with FerexServer(
            make_index(), max_batch_size=256, max_wait_ms=40.0
        ) as server:
            assert server.stats.coalescer_queue_depth == 0
            tasks = [
                asyncio.ensure_future(server.search(query, k=2))
                for query in queries
            ]
            # One scheduler pass parks every submit.
            await asyncio.sleep(0)
            assert server.stats.coalescer_queue_depth == len(queries)
            # The snapshot reads the same gauge.
            snap = server.stats.snapshot()
            assert snap["coalescer_queue_depth"] == len(queries)
            # Sampled through the drain: bounded by the outstanding
            # set and monotone non-increasing (one wave, no arrivals).
            samples = []
            while not all(task.done() for task in tasks):
                samples.append(server.stats.coalescer_queue_depth)
                await asyncio.sleep(0.002)
            await asyncio.gather(*tasks)
            assert all(0 <= s <= len(queries) for s in samples)
            assert samples == sorted(samples, reverse=True)
            assert server.stats.coalescer_queue_depth == 0

    asyncio.run(main())


def test_gauge_is_consistent_with_pending_under_staggered_load(
    make_index, queries
):
    """Arrivals in waves: at every sample the gauge equals the number
    of submitted-but-unresolved requests that are still parked (never
    more than the outstanding count, never negative)."""

    async def main():
        async with FerexServer(
            make_index(), max_batch_size=8, max_wait_ms=5.0
        ) as server:
            outstanding = []
            violations = []

            def check():
                depth = server.stats.coalescer_queue_depth
                alive = sum(
                    1 for task in outstanding if not task.done()
                )
                if not 0 <= depth <= alive:
                    violations.append((depth, alive))

            for wave in range(4):
                for query in queries[wave * 6 : wave * 6 + 6]:
                    outstanding.append(
                        asyncio.ensure_future(server.search(query, k=2))
                    )
                    check()
                await asyncio.sleep(0.003)
                check()
            await asyncio.gather(*outstanding)
            check()
            assert violations == []
            assert server.stats.coalescer_queue_depth == 0

    asyncio.run(main())


def test_gauge_reads_zero_without_probe():
    from repro.serve import ServerStats

    stats = ServerStats()
    assert stats.coalescer_queue_depth == 0
    assert stats.snapshot()["coalescer_queue_depth"] == 0
