"""FerexServer: serving concurrent traffic over one FeReX index.

Shows the whole serving story in ~60 lines:

1. build an index and put a `FerexServer` in front (request coalescer
   + LRU query cache + single-writer gate);
2. fire concurrent client tasks at it — the coalescer folds them into
   micro-batches that ride the index's batched search path;
3. repeat the traffic — the query cache answers without touching the
   arrays;
4. mutate mid-flight (add) — the single-writer path waits out in-flight
   reads, applies the write and invalidates the cache;
5. read the stats surface: qps, batch histogram, hit rate, latency
   percentiles.

Run:  python examples/serve_traffic.py
"""

import asyncio

import numpy as np

from repro import FerexIndex, FerexServer

rng = np.random.default_rng(11)
DIMS, BITS = 64, 2
stored = rng.integers(0, 1 << BITS, size=(120, DIMS))
queries = rng.integers(0, 1 << BITS, size=(48, DIMS))


def make_index():
    # Same config + seed + insertion order => bit-identical index.
    index = FerexIndex(
        dims=DIMS, metric="hamming", bits=BITS, bank_rows=64, seed=5
    )
    index.add(stored)
    return index


async def client(server, stream):
    """One client task: pulls queries off a shared stream."""
    answers = []
    while True:
        try:
            row, query = next(stream)
        except StopIteration:
            return answers
        outcome = await server.search(query, k=3)
        answers.append((row, outcome))


async def main():
    server = FerexServer(
        make_index(), max_batch_size=16, max_wait_ms=2.0, cache_size=512
    )
    async with server:
        # --- wave 1: 16 concurrent clients, coalesced ----------------
        stream = iter(enumerate(queries))
        results = await asyncio.gather(
            *(client(server, stream) for _ in range(16))
        )
        served = sorted(
            (row, outcome) for answers in results for row, outcome in answers
        )
        direct = make_index().search(queries, k=3)
        identical = all(
            np.array_equal(outcome.ids, direct.ids[row])
            for row, outcome in served
        )
        print(f"wave 1: {len(served)} served, "
              f"bit-identical to direct search: {identical}")

        # --- wave 2: same queries again, mostly cache hits -----------
        await asyncio.gather(*(server.search(q, k=3) for q in queries))
        print(f"wave 2: cache hit rate now "
              f"{server.stats.cache_hit_rate:.0%}")

        # --- a write lands: reads drain, the cache clears -------------
        new_ids = await server.add(queries[:2])
        post = await server.search(queries[0], k=1)
        print(f"added ids {new_ids.tolist()}; query 0's nearest is now "
              f"{int(post.ids[0])} (itself), generation "
              f"{server.write_generation}")

        # --- the stats surface ---------------------------------------
        print()
        print(server.stats.format())


if __name__ == "__main__":
    asyncio.run(main())
