"""Serving FeReX over the wire: HTTP front-end and admission control.

Builds the full serving stack in one process and exercises it end to
end:

1. a `FerexIndex` published into a `ProcReplicaPool` (shared-memory
   worker processes) with a `FerexServer` facade in front;
2. a `NetFrontend` — the dependency-free asyncio HTTP/1.1 layer —
   bound to a loopback port, with an `AdmissionController` (bounded
   pending budget, overload shed as 429 + Retry-After);
3. wire traffic through `HttpClient`: single search, a coalesced
   burst that parks in one coalescer window, a streamed NDJSON bulk
   add, a binary-framed batch search over the
   `application/x-ferex-batch` fast path (fixed 28-byte header + raw
   array bytes each way — no JSON number parsing), an overload wave
   that gets shed, and the `/metrics` document that reports all of it.

Every wire answer is bit-identical to `FerexIndex.search` on the same
data — the wire is a transport, not an approximation.

Run:  python examples/http_serving.py
"""

import asyncio

import numpy as np

from repro import FerexIndex, FerexServer
from repro.serve import ProcReplicaPool
from repro.serve.net import AdmissionController, HttpClient, NetFrontend

rng = np.random.default_rng(11)
DIMS, BITS, K = 64, 2, 3
stored = rng.integers(0, 1 << BITS, size=(120, DIMS))
queries = rng.integers(0, 1 << BITS, size=(48, DIMS))


def build_index():
    index = FerexIndex(
        dims=DIMS, metric="hamming", bits=BITS, bank_rows=64, seed=5
    )
    index.add(stored)
    return index


async def main():
    index = build_index()
    with ProcReplicaPool(index, n_workers=1) as pool:
        server = FerexServer(
            pool.index, pool=pool, max_batch_size=64, max_wait_ms=30.0
        )
        frontend = NetFrontend(
            server,
            admission=AdmissionController(max_pending=64, retry_after_s=0.05),
            default_deadline_ms=2_000.0,
        )
        async with server, frontend:
            host, port = "127.0.0.1", frontend.bound_port
            print(f"listening on http://{host}:{port}")

            # --- one search over the wire, checked against the array --
            client = await HttpClient.connect(host, port)
            response = await client.request(
                "POST",
                "/v1/search",
                json_body={"query": queries[0].tolist(), "k": K},
            )
            direct = index.search(queries[0][None], k=K)
            assert response.json()["ids"] == direct.ids[0].tolist()
            print(
                f"wire search -> {response.status}, ids "
                f"{response.json()['ids']} (bit-identical to direct)"
            )

            # --- a coalesced burst: 48 clients at once ----------------
            # Concurrent wire requests park in the same coalescer
            # window as in-process callers.
            burst = [await HttpClient.connect(host, port) for _ in queries]
            answers = await asyncio.gather(
                *(
                    c.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": q.tolist(), "k": K},
                    )
                    for c, q in zip(burst, queries)
                )
            )
            batch_direct = index.search(queries, k=K)
            identical = all(
                a.json()["ids"] == batch_direct.ids[row].tolist()
                for row, a in enumerate(answers)
            )
            print(
                f"burst of {len(answers)} -> all 200: "
                f"{all(a.status == 200 for a in answers)}, "
                f"bit-identical: {identical}"
            )
            for c in burst:
                await c.close()

            # --- streamed NDJSON bulk add -----------------------------
            rows = rng.integers(0, 1 << BITS, size=(10, DIMS))
            body = "".join(
                f'{{"vector": {row.tolist()}}}\n' for row in rows
            ).encode()
            response = await client.request(
                "POST",
                "/v1/add",
                body=body,
                content_type="application/x-ndjson",
            )
            print(
                f"NDJSON add -> {response.status}, ids "
                f"{response.json()['ids'][:3]}..., ntotal now "
                f"{index.ntotal} (generation {server.write_generation})"
            )

            # --- binary frames: the zero-copy wire format -------------
            # The same batch as one application/x-ferex-batch frame
            # each way: raw little-endian array bytes behind a fixed
            # header, decoded straight into numpy.  Same coalescer,
            # same answers — non-finite padding crosses natively
            # instead of as JSON null.
            ids, distances = await client.search_batch_binary(
                queries, k=K
            )
            assert np.array_equal(ids, index.search(queries, k=K).ids)
            new_rows = rng.integers(0, 1 << BITS, size=(4, DIMS))
            new_ids = await client.add_binary(new_rows)
            print(
                f"binary search_batch -> {ids.shape} ids "
                f"(bit-identical to direct), binary add -> ids "
                f"{new_ids.tolist()}"
            )

            # --- overload: a wave beyond the pending budget -----------
            async with FerexServer(
                build_index(), max_batch_size=4, max_wait_ms=50.0
            ) as slow:
                tiny = NetFrontend(
                    slow, admission=AdmissionController(max_pending=4)
                )
                async with tiny:
                    wave = [
                        await HttpClient.connect(host, tiny.bound_port)
                        for _ in range(12)
                    ]
                    flood = await asyncio.gather(
                        *(
                            c.request(
                                "POST",
                                "/v1/search",
                                json_body={
                                    "query": queries[0].tolist(),
                                    "k": K,
                                },
                            )
                            for c in wave
                        )
                    )
                    shed = [r for r in flood if r.status == 429]
                    print(
                        f"overload wave of {len(flood)} vs budget 4: "
                        f"{len(flood) - len(shed)} served, "
                        f"{len(shed)} shed with Retry-After "
                        f"{shed[0].retry_after_s}s"
                    )
                    for c in wave:
                        await c.close()

            # --- the metrics document ---------------------------------
            metrics = (
                await client.request("GET", "/metrics")
            ).json()
            print(
                f"/metrics: {metrics['net']['n_requests']} wire "
                f"requests, p99 "
                f"{metrics['server']['latency']['p99'] * 1e3:.2f} ms, "
                f"pool workers {metrics['pool']['n_workers']}"
            )
            await client.close()


if __name__ == "__main__":
    asyncio.run(main())
