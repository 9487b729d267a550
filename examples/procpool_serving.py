"""Scaling FeReX serving beyond the GIL: the multi-process replica
pool behind the adaptive coalescer.

Walkthrough:

1. build a primary `FerexIndex` and publish its state once into
   shared-memory segments; spawn a `ProcReplicaPool` of worker
   processes that attach them zero-copy (fingerprint-verified) — N
   replicas, ~1x canonical index RAM;
2. put a `FerexServer` in front with `pool=` — coalesced micro-batches
   now run truly in parallel, one per worker process — while the
   coalescer's adaptive window serves a lone caller near-directly and
   still batches bursts;
3. write through the server: the mutation applies to the primary and
   the pool republishes a fresh generation inside the same
   single-writer critical section, so the next read sees it;
4. kill a worker mid-traffic: the pool respawns it from the current
   segments and answers stay bit-identical throughout.

Run:  PYTHONPATH=src python examples/procpool_serving.py
"""

import asyncio

import numpy as np

from repro import FerexIndex, FerexServer, ProcReplicaPool

rng = np.random.default_rng(23)
DIMS, BITS = 256, 1
stored = rng.integers(0, 1 << BITS, size=(96, DIMS))
queries = rng.integers(0, 1 << BITS, size=(64, DIMS))


async def main(pool: ProcReplicaPool, index: FerexIndex):
    server = FerexServer(
        pool=pool,
        max_batch_size=16,
        max_wait_ms=2.0,
        cache_size=256,
    )
    async with server:
        # --- concurrent wave: batches fan out across worker processes
        results = await asyncio.gather(
            *(server.search(q, k=3) for q in queries)
        )
        direct = index.search(queries, k=3)
        identical = all(
            np.array_equal(outcome.ids, direct.ids[row])
            for row, outcome in enumerate(results)
        )
        print(
            f"wave 1: {len(results)} served across "
            f"{pool.n_workers} worker processes, bit-identical to "
            f"direct search: {identical}"
        )

        # --- a write lands: primary mutates, segments republish -----
        new_ids = await server.add(queries[:2])
        post = await server.search(queries[0], k=1)
        print(
            f"added ids {new_ids.tolist()}; query 0's nearest is now "
            f"{int(post.ids[0])} (itself); pool generation "
            f"{pool.generation} == index generation "
            f"{index.write_generation}"
        )

        # --- kill a worker mid-traffic: the pool heals itself -------
        pool.workers[0].process.kill()
        refreshed = await asyncio.gather(
            *(server.search(q, k=3) for q in queries[:16])
        )
        direct = index.search(queries[:16], k=3)
        identical = all(
            np.array_equal(outcome.ids, direct.ids[row])
            for row, outcome in enumerate(refreshed)
        )
        print(
            f"after killing a worker: answers bit-identical: "
            f"{identical}; respawns: {pool.respawns}"
        )

        # --- the stats surface --------------------------------------
        print()
        print(server.stats.format())


if __name__ == "__main__":
    index = FerexIndex(dims=DIMS, metric="hamming", bits=BITS, seed=3)
    index.add(stored)
    with ProcReplicaPool(index, n_workers=2) as pool:
        asyncio.run(main(pool, index))
