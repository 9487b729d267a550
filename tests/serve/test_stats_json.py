"""ServerStats.snapshot() JSON-safety: whatever numpy-typed values the
recorders and gauge probes feed in, the snapshot is ``json.dumps``-clean
with no custom encoder — the contract the ``/metrics`` endpoint and the
bench artifacts rely on."""

import asyncio
import json

import numpy as np

from repro.serve import FerexServer, ServerStats


def _assert_plain(value, path="snapshot"):
    if isinstance(value, dict):
        for key, child in value.items():
            assert type(key) is str, f"{path} key {key!r} is {type(key)}"
            _assert_plain(child, f"{path}.{key}")
        return
    assert type(value) in (int, float, str), (
        f"{path} is {type(value).__name__}: {value!r}"
    )


def test_snapshot_survives_numpy_typed_inputs():
    stats = ServerStats()
    # Recorders fed numpy scalars — exactly what a bench loop that
    # computes latencies with np.diff hands over.
    stats.record_request(np.float64(0.0015))
    stats.record_request(np.float32(0.0030), cache_hit=True)
    stats.record_batch(np.int64(4))
    stats.record_batch(np.int32(4))
    stats.record_dispatch_hits(np.int64(2))
    stats.record_dispatch_dedup(np.int16(1))
    stats.queue_depth_probe = lambda: np.int64(3)
    stats.register_gauge("np_float_gauge", lambda: np.float64(0.5))
    stats.register_gauge("np_int_gauge", lambda: np.int32(7))
    stats.register_gauge("int_gauge", lambda: 9)
    stats.register_gauge("none_gauge", lambda: None)

    snap = stats.snapshot()
    _assert_plain(snap)
    text = json.dumps(snap)  # would raise on any numpy leaf
    assert json.loads(text) == snap

    # The histogram buckets string-key plain ints.
    assert snap["batch_size_histogram"] == {"4": 2}
    assert type(snap["coalescer_queue_depth"]) is int
    assert snap["coalescer_queue_depth"] == 3
    # Python-int gauges stay ints; everything else lands as float
    # (None reads as 0.0 — "no data yet" is a valid gauge state).
    assert snap["int_gauge"] == 9
    assert type(snap["int_gauge"]) is int
    assert snap["np_float_gauge"] == 0.5
    assert snap["np_int_gauge"] == 7.0
    assert snap["none_gauge"] == 0.0
    assert snap["latency"]["count"] == 2
    assert type(snap["latency"]["count"]) is int
    assert type(snap["latency"]["p99"]) is float


def test_empty_snapshot_is_json_clean():
    snap = ServerStats().snapshot()
    _assert_plain(snap)
    assert json.loads(json.dumps(snap)) == snap
    assert snap["latency"] == {
        "count": 0,
        "mean": 0.0,
        "p50": 0.0,
        "p95": 0.0,
        "p99": 0.0,
        "max": 0.0,
    }


def test_live_server_snapshot_round_trips(make_index, queries):
    """After real traffic (searches, a write, a reconfigure) the
    server's snapshot — EWMA gauges, deadline-drop counter and all —
    still round-trips strict JSON."""

    async def main():
        async with FerexServer(
            make_index(), max_wait_ms=0.5
        ) as server:
            await server.search_many(queries, k=3)
            await server.add(np.zeros((1, queries.shape[1]), dtype=int))
            await server.reconfigure(bits=3)
            snap = server.stats.snapshot()
            _assert_plain(snap)
            assert json.loads(json.dumps(snap)) == snap
            # The registered serving gauges are present and plain.
            assert snap["n_deadline_drops"] == 0
            assert snap["coalescer_ewma_service_s"] >= 0.0
            assert snap["coalescer_ewma_gap_s"] >= 0.0
            # Transport counters are registered even without a pool
            # (and read as plain zero ints).
            assert snap["n_slab_dispatches"] == 0
            assert snap["n_pickle_fallbacks"] == 0
            # The cache section carries both accounting eras, all
            # JSON-plain.
            cache = snap["cache"]
            assert cache["invalidations"] >= 1  # add + reconfigure
            assert cache["window_hits"] <= cache["hits"]

    asyncio.run(main())
