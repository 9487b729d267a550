"""NetFrontend behaviours: routing, error mapping, admission shedding,
deadline shedding, keep-alive hygiene and the metrics surface."""

import asyncio
import json

import numpy as np
import pytest

from repro.serve import FerexServer
from repro.serve.net import AdmissionController, HttpClient, NetFrontend

DIMS = 8


def run(coro):
    return asyncio.run(coro)


def test_healthz_and_metrics(make_index):
    async def main():
        async with FerexServer(make_index()) as server:
            admission = AdmissionController(max_pending=8)
            async with NetFrontend(server, admission=admission) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    health = await client.request("GET", "/healthz")
                    assert health.status == 200
                    payload = health.json()
                    assert payload["status"] == "ok"
                    assert (
                        payload["write_generation"] == server.write_generation
                    )
                    # A little traffic, then a clean metrics document.
                    await client.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": [0] * DIMS, "k": 2},
                    )
                    metrics = await client.request("GET", "/metrics")
                    assert metrics.status == 200
                    document = metrics.json()
                    # The document round-trips strict JSON (numpy and
                    # None never leak onto the wire).
                    assert json.loads(json.dumps(document)) == document
                    assert document["server"]["n_requests"] == 1
                    assert document["net"]["n_requests"] >= 2
                    assert document["net"]["status_counts"]["200"] >= 2
                    assert document["admission"]["max_pending"] == 8
                    assert "n_deadline_drops" in document["server"]
                    assert "coalescer_ewma_service_s" in document["server"]

    run(main())


def test_routing_errors(make_index):
    async def main():
        async with FerexServer(make_index()) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    nowhere = await client.request("POST", "/v1/nowhere")
                    assert nowhere.status == 404
                    wrong_method = await client.request("GET", "/v1/search")
                    assert wrong_method.status == 405
                    no_query = await client.request(
                        "POST", "/v1/search", json_body={"k": 1}
                    )
                    assert no_query.status == 400
                    bad_json = await client.request(
                        "POST", "/v1/search", body=b"{nope"
                    )
                    assert bad_json.status == 400
                    bad_k = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": [0] * DIMS, "k": "three"},
                    )
                    assert bad_k.status == 400
                    bad_deadline = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={
                            "query": [0] * DIMS,
                            "deadline_ms": -5,
                        },
                    )
                    assert bad_deadline.status == 400
                    not_array = await client.request(
                        "POST", "/v1/search", body=b'[1, 2]'
                    )
                    assert not_array.status == 400
                    negative_id = await client.request(
                        "POST",
                        "/v1/add",
                        json_body={"vectors": [[0] * DIMS], "ids": [-1]},
                    )
                    assert negative_id.status == 400
                    assert "non-negative" in negative_id.json()["message"]
                    fractional = await client.request(
                        "POST",
                        "/v1/add",
                        json_body={"vectors": [[0] * (DIMS - 1) + [0.6]]},
                    )
                    assert fractional.status == 400
                    assert "fractional" in fractional.json()["message"]
                    # The connection survived every fully-read error
                    # body: still serving on the same socket.
                    ok = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": [0] * DIMS, "k": 1},
                    )
                    assert ok.status == 200

    run(main())


def test_admission_sheds_beyond_budget_with_retry_after(
    make_index, queries
):
    """A burst wider than the pending budget: the budget's worth is
    admitted and served, the rest is shed instantly with 429 +
    Retry-After."""

    async def main():
        index = make_index()
        reference = index.search(queries, k=2)
        # A long flush window keeps admitted requests parked while the
        # rest of the burst arrives.
        async with FerexServer(
            index, max_batch_size=256, max_wait_ms=60.0, cache_size=0
        ) as server:
            admission = AdmissionController(
                max_pending=2, retry_after_s=0.123
            )
            async with NetFrontend(server, admission=admission) as frontend:
                clients = [
                    await HttpClient.connect(
                        "127.0.0.1", frontend.bound_port
                    )
                    for _ in range(6)
                ]
                try:
                    responses = await asyncio.gather(
                        *(
                            client.request(
                                "POST",
                                "/v1/search",
                                json_body={
                                    "query": queries[row].tolist(),
                                    "k": 2,
                                },
                            )
                            for row, client in enumerate(clients)
                        )
                    )
                finally:
                    for client in clients:
                        await client.close()
                served = [r for r in responses if r.status == 200]
                shed = [r for r in responses if r.status == 429]
                assert len(served) == 2
                assert len(shed) == 4
                for response in shed:
                    assert response.retry_after_s == 0.123
                    assert response.json()["status"] == 429
                # Admitted requests are still answered exactly.
                for row, response in enumerate(responses):
                    if response.status != 200:
                        continue
                    payload = response.json()
                    assert payload["ids"] == reference.ids[row].tolist()
                # The budget fully drains and the counters add up.
                assert admission.pending == 0
                assert admission.n_admitted == 2
                assert admission.n_rejected == 4
                assert frontend.n_shed_429 == 4

    run(main())


def test_deadline_expiry_is_shed_with_503(make_index):
    """A deadline shorter than the flush window expires while parked:
    the coalescer drops it before dispatch, the wire answers 503 +
    Retry-After, and the drop is visible in /metrics."""

    async def main():
        async with FerexServer(
            make_index(), max_batch_size=256, max_wait_ms=60.0
        ) as server:
            async with NetFrontend(
                server, default_deadline_ms=5.0
            ) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    response = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": [0] * DIMS, "k": 1},
                    )
                    assert response.status == 503
                    assert response.retry_after_s is not None
                    metrics = await client.request("GET", "/metrics")
                    assert metrics.json()["server"][
                        "n_deadline_drops"
                    ] == 1
                    assert frontend.n_shed_503 == 1
                    # A client deadline wide enough to cover the flush
                    # window (overriding the tight default is not
                    # possible — the tighter bound wins — so the
                    # request must go through a fresh front-end).
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    response = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={
                            "query": [0] * DIMS,
                            "k": 1,
                            "deadline_ms": 10_000,
                        },
                    )
                    assert response.status == 200

    run(main())


def test_oversized_body_is_rejected_and_connection_closed(make_index):
    async def main():
        async with FerexServer(make_index()) as server:
            async with NetFrontend(
                server, max_body_bytes=256
            ) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    big = {"queries": [[0] * DIMS] * 64, "k": 1}
                    response = await client.request(
                        "POST", "/v1/search_batch", json_body=big
                    )
                    assert response.status == 413
                    # The unread body makes the connection unusable;
                    # the front-end says so and hangs up.
                    assert response.headers["connection"] == "close"
                # A fresh connection serves normally.
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    ok = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": [0] * DIMS, "k": 1},
                    )
                    assert ok.status == 200

    run(main())


def test_transfer_encoding_is_refused(make_index):
    async def main():
        async with FerexServer(make_index()) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    response = await client.request(
                        "POST",
                        "/v1/search",
                        json_body={"query": [0] * DIMS},
                        headers=[("Transfer-Encoding", "chunked")],
                    )
                    assert response.status == 501

    run(main())


def test_connection_close_header_is_honoured(make_index):
    async def main():
        async with FerexServer(make_index()) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    response = await client.request(
                        "GET",
                        "/healthz",
                        headers=[("Connection", "close")],
                    )
                    assert response.status == 200
                    assert response.headers["connection"] == "close"

    run(main())


def test_ndjson_mixed_id_rows_rejected_with_honest_count(make_index, rng):
    """An NDJSON stream that flips between implicit and explicit ids is
    a 400 — and the error message owns up to the chunks already
    applied (streaming writes are not transactional)."""

    async def main():
        index = make_index()
        rows_before = index.ntotal
        async with FerexServer(index) as server:
            async with NetFrontend(
                server, write_chunk_rows=2
            ) as frontend:
                lines = [
                    json.dumps(
                        {"vector": rng.integers(0, 4, size=DIMS).tolist()}
                    )
                    for _ in range(4)
                ]
                lines.append(
                    json.dumps({"vector": [0] * DIMS, "id": 999})
                )
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    response = await client.request(
                        "POST",
                        "/v1/add",
                        body="\n".join(lines).encode(),
                        content_type="application/x-ndjson",
                    )
                    assert response.status == 400
                    assert "mixes rows" in response.json()["message"]
                # The two full chunks before the bad line landed.
                assert index.ntotal == rows_before + 4

    run(main())


def test_compact_endpoint(make_index):
    async def main():
        index = make_index()
        async with FerexServer(index) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    ids = index.search(
                        np.zeros(DIMS, dtype=np.int64)[None], k=4
                    ).ids[0]
                    removed = await client.request(
                        "POST",
                        "/v1/remove",
                        json_body={"ids": [int(i) for i in ids[:2]]},
                    )
                    assert removed.json()["removed"] == 2
                    live = index.ntotal
                    generation = index.write_generation
                    response = await client.request(
                        "POST", "/v1/compact"
                    )
                    assert response.status == 200
                    assert index.ntotal == live
                    assert index.write_generation == generation + 1

    run(main())


@pytest.mark.parametrize(
    "body,key",
    [
        ({"bits": 1, "banks": [0]}, "banks"),
        ({"metric": "manhattan", "banks": [0, 1]}, "banks"),
        ({"banks": [1]}, "banks"),
        ({"bits": 1, "bank": 0}, "bank"),
        ({"top_p": 1, "rows": [0, 3]}, "rows"),
    ],
)
def test_reconfigure_refuses_unknown_keys_before_writing(
    make_index, body, key
):
    """A body carrying a key reconfigure does not read (``banks``, a
    bank subset, or any other) is a 400 naming it, not a silent
    whole-index re-voltage: the write generation and config stay put."""

    async def main():
        index = make_index()
        async with FerexServer(index) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    generation = index.write_generation
                    config = index.config
                    response = await client.request(
                        "POST",
                        "/v1/reconfigure",
                        json_body=body,
                    )
                    assert response.status == 400
                    assert repr(key) in response.json()["message"]
                    assert index.write_generation == generation
                    assert index.config == config

    run(main())


@pytest.mark.parametrize(
    "path,body,key",
    [
        ("/v1/search", {"query": [0] * DIMS, "top_k": 5}, "top_k"),
        ("/v1/search", {"query": [0] * DIMS, "deadline": 9}, "deadline"),
        ("/v1/search", {"queries": [[0] * DIMS], "k": 2}, "queries"),
        ("/v1/search_batch", {"queries": [[0] * DIMS], "K": 2}, "K"),
        ("/v1/search_batch", {"query": [[0] * DIMS]}, "query"),
        ("/v1/add", {"vectors": [[0] * DIMS], "id": [999]}, "id"),
        ("/v1/add", {"vector": [[0] * DIMS], "ids": [999]}, "vector"),
        ("/v1/add", {"vectors": [[0] * DIMS], "k": 1}, "k"),
        ("/v1/remove", {"id": [0]}, "id"),
        ("/v1/remove", {"ids": [0], "compact": True}, "compact"),
        ("/v1/compact", {"now": True}, "now"),
    ],
)
def test_unknown_body_keys_are_refused_before_writing(
    make_index, path, body, key
):
    """A JSON body carrying a key its endpoint does not read is a 400
    naming it — not an answer or a write that silently dropped what the
    caller asked for."""

    async def main():
        index = make_index()
        async with FerexServer(index) as server:
            async with NetFrontend(server) as frontend:
                async with await HttpClient.connect(
                    "127.0.0.1", frontend.bound_port
                ) as client:
                    generation = index.write_generation
                    ntotal = index.ntotal
                    response = await client.request(
                        "POST", path, json_body=body
                    )
                    assert response.status == 400
                    assert repr(key) in response.json()["message"]
                    assert index.write_generation == generation
                    assert index.ntotal == ntotal

    run(main())
