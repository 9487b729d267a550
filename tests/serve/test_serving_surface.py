"""The serving surface has one path per job: no constructor selects a
second cache policy, routing policy, wait policy or dispatch transport,
and the adaptive flush window is what a default server runs."""

import asyncio
import importlib
import inspect

import numpy as np
import pytest

import repro.serve as serve
from repro.serve import (
    FerexServer,
    ProcReplicaPool,
    QueryCache,
    ReplicaRouter,
    RequestCoalescer,
)

DELETED_OPTIONS = {
    "cache_policy",
    "policy",
    "adaptive_wait",
    "ewma_alpha",
    "wait_gain",
    "transport",
    "slab_batch_rows",
}
DELETED_NAMES = (
    "FrequencySketch",
    "LruPolicy",
    "TinyLfuPolicy",
    "make_policy",
    "Replica",
    "ReplicaParityError",
)


@pytest.mark.parametrize(
    "cls",
    [FerexServer, RequestCoalescer, QueryCache, ProcReplicaPool,
     ReplicaRouter],
)
def test_no_constructor_selects_a_second_path(cls):
    params = inspect.signature(cls.__init__).parameters
    assert not DELETED_OPTIONS & set(params)
    assert all(p.kind is not p.VAR_KEYWORD for p in params.values())


def test_deleted_names_are_gone():
    for name in DELETED_NAMES:
        assert not hasattr(serve, name), name
        assert name not in serve.__all__
    assert not hasattr(FerexServer, "from_factory")
    with pytest.raises(ImportError):
        importlib.import_module("repro.serve.admission_policy")


def test_server_takes_one_index(make_index):
    with pytest.raises(TypeError):
        FerexServer([make_index(), make_index()])


def test_default_server_sends_a_lone_request_at_once(make_index, queries):
    """A request arriving after a gap longer than the service EWMA
    gets a zero-length flush window (and the inline dispatch), rather
    than the full ``max_wait_ms``."""

    async def main():
        async with FerexServer(make_index()) as server:
            coalescer = server.coalescer
            await server.search(queries[0], k=2)  # warms the service EWMA
            await asyncio.sleep(max(0.05, 4 * coalescer.ewma_service_s))
            outcome = await server.search(queries[1], k=2)
            assert coalescer.ewma_gap_s > coalescer.ewma_service_s
            assert coalescer.scheduled_waits[-1] == 0.0
            direct = server.index.search(queries[1][None], k=2)
            assert np.array_equal(outcome.ids, direct.ids[0])
            assert np.array_equal(outcome.distances, direct.distances[0])

    asyncio.run(main())


def test_default_server_still_coalesces_a_burst(make_index, queries):
    """The same default that sends a lone request at once opens its
    window under a concurrent burst: distinct queries share dispatches
    (the cache is off, so every row reaches the index) and every row
    equals direct search."""

    async def main():
        async with FerexServer(make_index(), cache_size=0) as server:
            for _ in range(3):
                outcomes = await asyncio.gather(
                    *(server.search(query, k=2) for query in queries)
                )
            direct = server.index.search(queries, k=2)
            assert np.array_equal(
                np.stack([o.ids for o in outcomes]), direct.ids
            )
            assert np.array_equal(
                np.stack([o.distances for o in outcomes]), direct.distances
            )
            assert server.stats.n_batches < 3 * len(queries)
            assert server.stats.mean_batch_size > 1.5

    asyncio.run(main())
