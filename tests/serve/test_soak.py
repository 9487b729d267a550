"""Soak: sustained mixed read/write traffic against ``FerexServer``.

Runs a fixed request budget of interleaved concurrent reads, cache
re-reads and writes (add/remove), asserting the serving invariants the
unit suites check one at a time all hold *together* over time:

* no cache staleness — a query repeated after every mutation always
  matches a fresh direct search of the index;
* ``write_generation`` is strictly monotone across mutations;
* reads racing a write resolve to the pre- or post-write answer, never
  to anything else.

Budget: ``FEREX_SOAK_REQUESTS`` (default 400 — the quick profile CI's
tier-1 matrix runs; raise it for a real soak, e.g. ``=20000``).
"""

import asyncio
import os

import numpy as np
import pytest

from repro.serve import FerexServer, ProcReplicaPool

pytestmark = pytest.mark.slow

BUDGET = int(os.environ.get("FEREX_SOAK_REQUESTS", "400"))
READS_PER_ROUND = 16
DIMS = 8
BITS = 2


def test_mixed_read_write_soak(make_index, queries):
    probe = queries[0]  # the staleness canary: re-asked every round

    async def read_burst(server, primary, wave_rng):
        picks = wave_rng.integers(0, len(queries), size=READS_PER_ROUND)
        ks = wave_rng.integers(1, 4, size=READS_PER_ROUND)
        results = await asyncio.gather(
            *(
                server.search(queries[row], k=int(k))
                for row, k in zip(picks, ks)
            )
        )
        for (row, k), outcome in zip(zip(picks, ks), results):
            direct = primary.search(queries[row][None], k=int(k))
            assert np.array_equal(outcome.ids, direct.ids[0])
            assert np.array_equal(outcome.distances, direct.distances[0])
        return len(results)

    async def main():
        server = FerexServer(
            make_index(), max_batch_size=8, max_wait_ms=1.0, cache_size=64
        )
        wave_rng = np.random.default_rng(2024)
        served = 0
        generations = [server.write_generation]
        removable = []
        async with server:
            primary = server.index
            round_no = 0
            while served < BUDGET:
                round_no += 1
                served += await read_burst(server, primary, wave_rng)

                if round_no % 2 == 0:
                    # Mutate: alternate adds and removes so the live
                    # set keeps churning without growing unboundedly.
                    if removable and round_no % 4 == 0:
                        await server.remove([removable.pop()])
                    else:
                        fresh = wave_rng.integers(
                            0, 1 << BITS, size=(2, DIMS)
                        )
                        new_ids = await server.add(fresh)
                        removable.extend(int(i) for i in new_ids)
                    generations.append(server.write_generation)

                    # Cache staleness canary: the probe was served (and
                    # cached) before this write; it must now match a
                    # fresh direct search, not the cached past.
                    outcome = await server.search(probe, k=3)
                    served += 1
                    direct = primary.search(probe[None], k=3)
                    assert np.array_equal(outcome.ids, direct.ids[0])
                    assert np.array_equal(
                        outcome.distances, direct.distances[0]
                    )

                if round_no % 5 == 0:
                    # Reads racing a write: each must equal the pre- or
                    # post-write answer for its query.
                    pre = primary.search(queries[:4], k=2)
                    write = asyncio.ensure_future(
                        server.add(
                            wave_rng.integers(0, 1 << BITS, size=(1, DIMS))
                        )
                    )
                    racing = await asyncio.gather(
                        *(server.search(q, k=2) for q in queries[:4])
                    )
                    await write
                    generations.append(server.write_generation)
                    post = primary.search(queries[:4], k=2)
                    for row, outcome in enumerate(racing):
                        ok_pre = np.array_equal(outcome.ids, pre.ids[row])
                        ok_post = np.array_equal(
                            outcome.ids, post.ids[row]
                        )
                        assert ok_pre or ok_post
                    served += 4

        # Monotone generations: every mutation moved the epoch forward.
        assert generations == sorted(generations)
        assert len(set(generations)) == len(generations)
        assert served >= BUDGET
        snap = server.stats.snapshot()
        assert snap["n_errors"] == 0
        assert snap["n_requests"] >= served

    asyncio.run(main())


def test_pooled_read_write_soak(make_index, queries):
    """The pooled leg: sustained reads over the process pool's slabs
    with interleaved writes republishing through the primary.  Every
    answer must match a fresh direct search and the dispatch counters
    must show the traffic rode the slabs."""
    # The pooled soak shares the tier-1 budget but dispatches remotely,
    # so run a quarter of it — still hundreds of pooled round-trips at
    # the nightly budget.
    budget = max(BUDGET // 4, 100)

    async def main():
        index = make_index()
        with ProcReplicaPool(index, n_workers=2) as pool:
            server = FerexServer(
                pool=pool, max_batch_size=8, max_wait_ms=1.0, cache_size=0
            )
            wave_rng = np.random.default_rng(777)
            served = 0
            round_no = 0
            async with server:
                while served < budget:
                    round_no += 1
                    picks = wave_rng.integers(
                        0, len(queries), size=READS_PER_ROUND
                    )
                    batch = np.asarray(queries)[picks]
                    k = int(wave_rng.integers(1, 4))
                    outcome = await server.search_many(batch, k=k)
                    direct = index.search(batch, k=k)
                    assert np.array_equal(outcome.ids, direct.ids)
                    assert np.array_equal(
                        outcome.distances, direct.distances
                    )
                    served += READS_PER_ROUND

                    if round_no % 3 == 0:
                        fresh = wave_rng.integers(
                            0, 1 << BITS, size=(2, DIMS)
                        )
                        await server.add(fresh)
                        assert pool.generation == index.write_generation

            snap = pool.snapshot()
            assert snap["n_slab_dispatches"] >= round_no
            assert snap["n_pickle_fallbacks"] == 0
            assert not pool.broken

    asyncio.run(main())
