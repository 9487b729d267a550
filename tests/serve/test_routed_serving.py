"""Routed backend behind the serving layer: online
``FerexServer.reconfigure_routing`` under concurrent traffic, its
cache invalidation, the process-pool republish of trained centroids,
and the wire ``/v1/reconfigure`` routing knobs."""

import asyncio

import numpy as np

from repro.index import FerexIndex
from repro.serve import FerexServer, ProcReplicaPool
from repro.serve.net import HttpClient, NetFrontend

DIMS = 8
BITS = 2


def routed_stored(n=48):
    return np.random.default_rng(31).integers(
        0, 1 << BITS, size=(n, DIMS)
    )


def routed_queries(n=12):
    return np.random.default_rng(32).integers(
        0, 1 << BITS, size=(n, DIMS)
    )


def make_routed_index():
    """Deterministic routed factory: every call trains the same
    centroids (fixed routing seed, same insertion order), so served
    answers and direct references are bit-identical."""
    index = FerexIndex(
        dims=DIMS,
        metric="hamming",
        bits=BITS,
        bank_rows=16,
        backend="routed",
        backend_options={
            "n_clusters": 4,
            "top_p": 2,
            "routing_seed": 9,
        },
    )
    index.add(routed_stored())
    return index


class TestServerRoutingReconfigure:
    def test_matches_direct_reference_and_counts(self):
        """reconfigure_routing on a live server: post-write
        answers equal a direct index driven through the same call, and
        the reconfigure shows up in ServerStats."""
        queries = routed_queries()

        async def main():
            server = FerexServer(make_routed_index(), max_wait_ms=0.5)
            async with server:
                await asyncio.gather(
                    *(server.search(q, k=3) for q in queries)
                )
                effective = await server.reconfigure_routing(top_p=4)
                assert effective == (4, 4)
                results = await asyncio.gather(
                    *(server.search(q, k=3) for q in queries)
                )
            return server, results

        server, results = asyncio.run(main())
        reference = make_routed_index()
        reference.reconfigure_routing(top_p=4)
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

    def test_invalidates_cache(self):
        """A cached answer must not survive a probe-width change: the
        routed geometry is part of the result, so the generation bump
        has to force a miss."""
        query = routed_queries(1)[0]

        async def main():
            server = FerexServer(make_routed_index(), max_wait_ms=0.2)
            async with server:
                await server.search(query, k=2)
                await server.search(query, k=2)  # hit, old geometry
                hits_before = server.stats.n_cache_hits
                await server.reconfigure_routing(top_p=4)
                await server.search(query, k=2)  # must miss
                hits_after = server.stats.n_cache_hits
                return hits_before, hits_after, len(server.cache)

        hits_before, hits_after, entries = asyncio.run(main())
        assert hits_before == 1
        assert hits_after == 1  # the post-reconfigure search missed
        assert entries == 1  # repopulated under the new generation

    def test_pooled_republish_carries_centroids(self):
        """Process-pool replicas rebuild from exported state, so the
        republish after reconfigure_routing must hand over the trained
        centroids — pool answers equal the writer index exactly."""
        queries = routed_queries(6)

        async def main():
            index = make_routed_index()
            with ProcReplicaPool(index, n_workers=1) as pool:
                server = FerexServer(pool=pool, max_wait_ms=0.5)
                async with server:
                    await asyncio.gather(
                        *(server.search(q, k=2) for q in queries)
                    )
                    await server.reconfigure_routing(
                        top_p=3, n_clusters=3
                    )
                    assert pool.generation == index.write_generation
                    after = await asyncio.gather(
                        *(server.search(q, k=2) for q in queries)
                    )
                return server, index, after

        server, index, after = asyncio.run(main())
        assert server.stats.n_republishes >= 1
        assert server.stats.n_reconfigures == 1
        assert server.last_republish_error is None
        expected = index.search(queries, k=2)
        np.testing.assert_array_equal(
            np.stack([r.ids for r in after]), expected.ids
        )
        np.testing.assert_array_equal(
            np.stack([r.distances for r in after]), expected.distances
        )


class TestWireRoutingReconfigure:
    def test_routing_knobs_and_mixed_knob_rejection(self):
        """``/v1/reconfigure`` accepts top_p/n_clusters, refuses a body
        that mixes voltage and routing knobs, and settled wire answers
        equal direct search under the new geometry."""
        queries = routed_queries(8)

        async def main():
            index = make_routed_index()
            async with FerexServer(
                index, max_batch_size=4, max_wait_ms=0.5
            ) as server:
                async with NetFrontend(server) as frontend:
                    async with await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    ) as client:
                        mixed = await client.request(
                            "POST",
                            "/v1/reconfigure",
                            json_body={"bits": 1, "top_p": 2},
                        )
                        assert mixed.status == 400
                        message = mixed.json()["message"]
                        assert "separate write" in message
                        bad = await client.request(
                            "POST",
                            "/v1/reconfigure",
                            json_body={"top_p": 0},
                        )
                        assert bad.status == 400
                        ok = await client.request(
                            "POST",
                            "/v1/reconfigure",
                            json_body={"top_p": 4, "n_clusters": 3},
                        )
                        assert ok.status == 200
                        payload = ok.json()
                        assert payload["ok"] is True
                        assert payload["write_generation"] == int(
                            index.write_generation
                        )
                        settled = await client.request(
                            "POST",
                            "/v1/search_batch",
                            json_body={
                                "queries": queries.tolist(),
                                "k": 3,
                            },
                        )
                        assert settled.status == 200
                        wire = settled.json()
            return index, wire

        index, wire = asyncio.run(main())
        assert index.backend.n_trained_clusters == 3
        direct = index.search(queries, k=3)
        np.testing.assert_array_equal(
            np.asarray(wire["ids"], dtype=np.int64), direct.ids
        )
        np.testing.assert_array_equal(
            np.asarray(wire["distances"], dtype=float),
            direct.distances,
        )
