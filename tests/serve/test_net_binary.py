"""The ``application/x-ferex-batch`` wire fast path: binary frames in
and out of ``/v1/search_batch`` and ``/v1/add`` stay bit-identical to
direct ``FerexIndex`` search (inf padding included), a mid-load
reconfigure never tears a frame, and every malformed body is answered
with a typed 400 — never a hang or a 500."""

import asyncio
import itertools
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import FerexIndex
from repro.serve import FerexServer, ProcReplicaPool
from repro.serve.net import (
    BINARY_CONTENT_TYPE,
    HttpClient,
    HttpError,
    NetFrontend,
    pack_array_frame,
    pack_result_frame,
    unpack_array_frame,
    unpack_result_frame,
)
from repro.serve.net.protocol import (
    BINARY_MAGIC,
    BINARY_VERSION,
    FRAME_ARRAY,
    FRAME_HEADER_BYTES,
    _FRAME,
)

DIMS = 8
CONFIGS = list(
    itertools.product(["hamming", "manhattan", "euclidean"], [1, 2, 3])
)


def build_index(metric, bits, stored, seed=7):
    index = FerexIndex(
        dims=DIMS, metric=metric, bits=bits, bank_rows=16, seed=seed
    )
    index.add(stored)
    return index


class TestFrameCodec:
    """The codec round-trips without a server in the loop."""

    def test_array_frame_roundtrip(self, rng):
        array = rng.integers(0, 4, size=(12, DIMS)).astype("<i8")
        decoded, k = unpack_array_frame(pack_array_frame(array, k=5))
        assert k == 5
        assert decoded.dtype == np.dtype("<i8")
        assert np.array_equal(decoded, array)

    def test_array_frame_preserves_float_dtype(self, rng):
        array = rng.normal(size=(3, 4)).astype("<f4")
        decoded, _ = unpack_array_frame(pack_array_frame(array))
        assert decoded.dtype == np.dtype("<f4")
        assert np.array_equal(decoded, array)

    def test_result_frame_carries_inf_natively(self):
        ids = np.array([[3, -1], [0, -1]], dtype="<i8")
        distances = np.array([[1.5, np.inf], [0.0, np.inf]])
        got_ids, got_distances = unpack_result_frame(
            pack_result_frame(ids, distances)
        )
        assert np.array_equal(got_ids, ids)
        assert np.array_equal(got_distances, distances)

    def test_object_dtype_is_rejected_at_pack_time(self):
        with pytest.raises(ValueError):
            pack_array_frame(np.array([{"a": 1}], dtype=object))
        with pytest.raises(ValueError):
            pack_array_frame(np.zeros((2, 2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=FRAME_HEADER_BYTES + 64))
    def test_unpack_never_escapes_typed_errors(self, body):
        """Fuzz: arbitrary bytes either decode or raise a 400 — no
        other exception type, no hang."""
        try:
            unpack_array_frame(body)
        except HttpError as exc:
            assert exc.status == 400

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.integers(0, 255),
        code=st.integers(0, 255),
        rows=st.integers(0, 2**64 - 1),
        cols=st.integers(0, 2**64 - 1),
        k=st.integers(0, 2**32 - 1),
        payload=st.binary(max_size=64),
    )
    def test_fuzzed_headers_never_escape(
        self, kind, code, rows, cols, k, payload
    ):
        """Fuzz the header fields themselves — huge row/col counts must
        fail the length check (in Python ints, no overflow), not
        allocate or crash."""
        body = (
            _FRAME.pack(
                BINARY_MAGIC, BINARY_VERSION, kind, code, rows, cols, k
            )
            + payload
        )
        try:
            unpack_array_frame(body)
        except HttpError as exc:
            assert exc.status == 400


class TestBinaryWireParity:
    @pytest.mark.parametrize("metric,bits", CONFIGS)
    def test_binary_search_is_bit_identical(self, rng, metric, bits):
        """The acceptance sweep: binary-framed wire answers equal
        direct search at every config, including k > live rows where
        the inf padding must cross the wire exactly."""
        stored = rng.integers(0, 1 << bits, size=(40, DIMS))
        queries = rng.integers(0, 1 << bits, size=(12, DIMS))
        reference = build_index(metric, bits, stored).search(queries, k=3)
        padded = build_index(metric, bits, stored).search(queries, k=41)

        async def main():
            index = build_index(metric, bits, stored)
            async with FerexServer(
                index, max_batch_size=8, max_wait_ms=1.0, cache_size=0
            ) as server:
                async with NetFrontend(server) as frontend:
                    async with await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    ) as client:
                        ids, distances = await client.search_batch_binary(
                            queries, k=3
                        )
                        assert np.array_equal(ids, reference.ids)
                        assert np.array_equal(
                            distances, reference.distances
                        )
                        ids, distances = await client.search_batch_binary(
                            queries, k=41
                        )
                        assert np.array_equal(ids, padded.ids)
                        assert np.array_equal(distances, padded.distances)

        asyncio.run(main())

    def test_json_request_binary_accept_mirrors(self, rng):
        """The response format follows ``Accept`` independently of the
        request content type."""
        stored = rng.integers(0, 4, size=(40, DIMS))
        queries = rng.integers(0, 4, size=(6, DIMS))
        reference = build_index("hamming", 2, stored).search(queries, k=3)

        async def main():
            index = build_index("hamming", 2, stored)
            async with FerexServer(index, cache_size=0) as server:
                async with NetFrontend(server) as frontend:
                    async with await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    ) as client:
                        response = await client.request(
                            "POST",
                            "/v1/search_batch",
                            json_body={
                                "queries": queries.tolist(),
                                "k": 3,
                            },
                            headers=[("Accept", BINARY_CONTENT_TYPE)],
                        )
                        assert response.status == 200
                        assert (
                            response.headers["content-type"]
                            == BINARY_CONTENT_TYPE
                        )
                        ids, distances = unpack_result_frame(
                            response.body
                        )
                        assert np.array_equal(ids, reference.ids)
                        assert np.array_equal(
                            distances, reference.distances
                        )
                        # And a binary request without the Accept
                        # header comes back as JSON.
                        response = await client.request(
                            "POST",
                            "/v1/search_batch",
                            body=pack_array_frame(
                                np.ascontiguousarray(queries), k=3
                            ),
                            content_type=BINARY_CONTENT_TYPE,
                        )
                        assert response.status == 200
                        assert "json" in response.headers["content-type"]
                        payload = response.json()
                        assert np.array_equal(
                            np.asarray(payload["ids"]), reference.ids
                        )

        asyncio.run(main())

    def test_add_binary_roundtrip(self, rng):
        """Binary bulk-add assigns the same ids the JSON path would and
        the rows are immediately searchable."""
        stored = rng.integers(0, 4, size=(16, DIMS))
        extra = rng.integers(0, 4, size=(8, DIMS))

        async def main():
            index = build_index("hamming", 2, stored)
            async with FerexServer(index, cache_size=0) as server:
                async with NetFrontend(server) as frontend:
                    async with await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    ) as client:
                        ids = await client.add_binary(extra)
                        assert ids.shape == (len(extra),)
                        assert np.array_equal(
                            np.sort(ids), np.unique(ids)
                        )
                        got_ids, got_distances = (
                            await client.search_batch_binary(extra, k=1)
                        )
                        expected = index.search(extra, k=1)
                        assert np.array_equal(got_ids, expected.ids)
                        assert np.array_equal(
                            got_distances, expected.distances
                        )

        asyncio.run(main())

    def test_binary_parity_across_midload_reconfigure(self, rng):
        """Binary traffic across an online reconfigure: every frame is
        answered bit-identical to direct search at one of the two
        configs — never a torn or mixed answer."""
        stored = rng.integers(0, 2, size=(40, DIMS))
        queries = rng.integers(0, 2, size=(12, DIMS))

        async def main():
            index = build_index("hamming", 1, stored)
            async with FerexServer(
                index, max_batch_size=4, max_wait_ms=0.5, cache_size=0
            ) as server:
                async with NetFrontend(server) as frontend:
                    port = frontend.bound_port
                    clients = [
                        await HttpClient.connect("127.0.0.1", port)
                        for _ in range(len(queries) + 1)
                    ]
                    try:
                        traffic = [
                            asyncio.ensure_future(
                                clients[row].search_batch_binary(
                                    query[None, :], k=2
                                )
                            )
                            for row, query in enumerate(queries)
                        ]
                        reconfig = await clients[-1].request(
                            "POST",
                            "/v1/reconfigure",
                            json_body={"bits": 3, "metric": "manhattan"},
                        )
                        assert reconfig.status == 200
                        answers = await asyncio.gather(*traffic)
                        before = build_index(
                            "hamming", 1, stored
                        ).search(queries, k=2)
                        after = index.search(queries, k=2)
                        for row, (ids, distances) in enumerate(answers):
                            matches_before = np.array_equal(
                                ids[0], before.ids[row]
                            ) and np.array_equal(
                                distances[0], before.distances[row]
                            )
                            matches_after = np.array_equal(
                                ids[0], after.ids[row]
                            ) and np.array_equal(
                                distances[0], after.distances[row]
                            )
                            assert matches_before or matches_after
                        ids, distances = await clients[
                            0
                        ].search_batch_binary(queries, k=2)
                        assert np.array_equal(ids, after.ids)
                        assert np.array_equal(distances, after.distances)
                    finally:
                        for client in clients:
                            await client.close()

        asyncio.run(main())

    def test_binary_over_pooled_server(self, rng):
        """The fast path composes with the slab-dispatching replica
        pool: frontend -> server -> pool -> worker stays
        bit-identical end to end."""
        stored = rng.integers(0, 4, size=(40, DIMS))
        queries = rng.integers(0, 4, size=(10, DIMS))
        reference = build_index("hamming", 2, stored).search(queries, k=3)

        async def main():
            index = build_index("hamming", 2, stored)
            with ProcReplicaPool(index, n_workers=2) as pool:
                async with FerexServer(pool=pool, cache_size=0) as server:
                    async with NetFrontend(server) as frontend:
                        async with await HttpClient.connect(
                            "127.0.0.1", frontend.bound_port
                        ) as client:
                            ids, distances = (
                                await client.search_batch_binary(
                                    queries, k=3
                                )
                            )
                            assert np.array_equal(ids, reference.ids)
                            assert np.array_equal(
                                distances, reference.distances
                            )
                            metrics = await client.request(
                                "GET", "/metrics"
                            )
                            snap = metrics.json()
                            assert (
                                snap["server"]["n_slab_dispatches"] >= 1
                            )
                            assert snap["pool"]["n_slab_dispatches"] >= 1
                            assert snap["pool"]["n_pickle_fallbacks"] == 0

        asyncio.run(main())


class TestMalformedBinaryBodies:
    """Every malformed frame is a typed 400 — the connection survives
    and the JSON error body names the problem."""

    @staticmethod
    async def _post(client, body, path="/v1/search_batch"):
        return await client.request(
            "POST", path, body=body, content_type=BINARY_CONTENT_TYPE
        )

    def test_malformed_bodies_are_typed_400s(self, rng):
        queries = rng.integers(0, 4, size=(4, DIMS))
        good = pack_array_frame(np.ascontiguousarray(queries), k=2)

        bad_bodies = {
            "truncated header": good[: FRAME_HEADER_BYTES - 4],
            "truncated payload": good[:-8],
            "trailing garbage": good + b"\x00" * 8,
            "bad magic": b"NOPE" + good[4:],
            "bad version": good[:4]
            + struct.pack("<H", 9)
            + good[6:],
            "unsupported dtype code": good[:7] + b"\x7f" + good[8:],
            "result frame as request": pack_result_frame(
                np.zeros((2, 2), dtype="<i8"), np.zeros((2, 2))
            ),
            "shape mismatch": _FRAME.pack(
                BINARY_MAGIC,
                BINARY_VERSION,
                FRAME_ARRAY,
                1,
                4,
                DIMS + 3,
                2,
            )
            + good[FRAME_HEADER_BYTES:],
            "1-D frame": pack_array_frame(
                np.arange(DIMS, dtype="<i8"), k=2
            ),
            "k of zero": pack_array_frame(
                np.ascontiguousarray(queries), k=0
            ),
            "empty body": b"",
        }

        async def main():
            index = build_index("hamming", 2, rng.integers(0, 4, (16, DIMS)))
            async with FerexServer(index, cache_size=0) as server:
                async with NetFrontend(server) as frontend:
                    async with await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    ) as client:
                        for label, body in bad_bodies.items():
                            response = await asyncio.wait_for(
                                self._post(client, body), timeout=10.0
                            )
                            assert response.status == 400, label
                            payload = response.json()
                            assert payload["status"] == 400, label
                            assert payload["message"], label
                        # The connection is still healthy afterwards.
                        response = await self._post(client, good)
                        assert response.status == 200

        asyncio.run(main())

    def test_malformed_add_bodies_are_typed_400s(self, rng):
        async def main():
            index = build_index("hamming", 2, rng.integers(0, 4, (16, DIMS)))
            async with FerexServer(index, cache_size=0) as server:
                async with NetFrontend(server) as frontend:
                    async with await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    ) as client:
                        good = pack_array_frame(
                            np.ascontiguousarray(
                                rng.integers(0, 4, (4, DIMS))
                            )
                        )
                        for body in (
                            good[:-4],
                            b"XXXX" + good[4:],
                            pack_array_frame(
                                np.arange(DIMS, dtype="<i8")
                            ),
                        ):
                            response = await asyncio.wait_for(
                                self._post(client, body, path="/v1/add"),
                                timeout=10.0,
                            )
                            assert response.status == 400
                        response = await self._post(
                            client, good, path="/v1/add"
                        )
                        assert response.status == 200

        asyncio.run(main())


def test_metrics_count_wire_bytes(rng):
    """``/metrics`` exposes ``bytes_in``/``bytes_out`` and binary
    traffic moves both."""
    stored = rng.integers(0, 4, size=(16, DIMS))
    queries = rng.integers(0, 4, size=(4, DIMS))

    async def main():
        index = build_index("hamming", 2, stored)
        async with FerexServer(index, cache_size=0) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    # A snapshot is taken before its own reply is
                    # written, so prime bytes_out with one request.
                    await client.request("GET", "/healthz")
                    baseline = (await client.request("GET", "/metrics")).json()
                    assert baseline["net"]["bytes_in"] == 0
                    assert baseline["net"]["bytes_out"] > 0
                    await client.search_batch_binary(queries, k=2)
                    snap = (await client.request("GET", "/metrics")).json()
                    assert (
                        snap["net"]["bytes_in"]
                        >= FRAME_HEADER_BYTES + queries.size * 8
                    )
                    assert (
                        snap["net"]["bytes_out"]
                        > baseline["net"]["bytes_out"]
                    )
                    json.dumps(snap)  # stays JSON-clean

    asyncio.run(main())


class TestCodecGuard:
    """Every row-carrying endpoint reads either body and writes either
    answer: ``Content-Type`` picks the decoder, ``Accept`` the encoder,
    independently, and an error is always a JSON body."""

    @staticmethod
    def _request(endpoint, body, accept, rows):
        field = "queries" if endpoint == "/v1/search_batch" else "vectors"
        kwargs = {"headers": [("Accept", accept)] if accept else []}
        if body == "json":
            # A JSON add refuses the k it would not read.
            kwargs["json_body"] = {field: rows.tolist()}
            if field == "queries":
                kwargs["json_body"]["k"] = 3
        else:
            kwargs["body"] = pack_array_frame(
                np.ascontiguousarray(rows), k=3
            )
            kwargs["content_type"] = BINARY_CONTENT_TYPE
        return kwargs

    @staticmethod
    async def _post(endpoint, kwargs, stored):
        index = build_index("hamming", 2, stored)
        async with FerexServer(index, cache_size=0) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    return await client.request("POST", endpoint, **kwargs)

    @pytest.mark.parametrize("endpoint", ["/v1/search_batch", "/v1/add"])
    @pytest.mark.parametrize("accept", [None, BINARY_CONTENT_TYPE])
    @pytest.mark.parametrize("body", ["json", "frame"])
    def test_body_and_accept_pick_the_codec(
        self, rng, body, accept, endpoint
    ):
        stored = rng.integers(0, 4, size=(40, DIMS))
        rows = rng.integers(0, 4, size=(6, DIMS))
        kwargs = self._request(endpoint, body, accept, rows)
        response = asyncio.run(self._post(endpoint, kwargs, stored))
        assert response.status == 200
        binary = accept is not None
        assert response.headers["content-type"] == (
            BINARY_CONTENT_TYPE if binary else "application/json"
        )
        if endpoint == "/v1/search_batch":
            reference = build_index("hamming", 2, stored).search(rows, k=3)
            if binary:
                ids, distances = unpack_result_frame(response.body)
            else:
                payload = response.json()
                assert payload["n"] == len(rows)
                ids = np.asarray(payload["ids"])
                distances = np.asarray(payload["distances"], dtype=float)
            assert np.array_equal(ids, reference.ids)
            assert np.array_equal(distances, reference.distances)
        else:
            expected = build_index("hamming", 2, stored).add(rows)
            if binary:
                ids, _ = unpack_array_frame(response.body)
            else:
                payload = response.json()
                assert payload["count"] == len(rows)
                ids = np.asarray(payload["ids"])
            assert np.array_equal(ids, expected)

    @pytest.mark.parametrize("endpoint", ["/v1/search_batch", "/v1/add"])
    @pytest.mark.parametrize("body", ["json", "frame"])
    def test_error_under_binary_accept_is_json(self, rng, body, endpoint):
        stored = rng.integers(0, 4, size=(40, DIMS))
        flat = rng.integers(0, 4, size=DIMS)  # 1-D: not a row batch
        kwargs = self._request(endpoint, body, BINARY_CONTENT_TYPE, flat)
        response = asyncio.run(self._post(endpoint, kwargs, stored))
        assert response.status == 400
        assert response.headers["content-type"] == "application/json"
        payload = response.json()
        assert payload["status"] == 400
        assert payload["message"]
