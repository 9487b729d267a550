"""Slab dispatch: pooled searches over the shared-memory
request/response slabs stay bit-identical to direct index search —
across metrics x bits, through slab growth, republish and
crash/respawn — and the pickle fallback for payloads a slab cannot
carry stays honest."""

import itertools

import numpy as np
import pytest

from repro.index import FerexIndex
from repro.serve import ProcReplicaPool
from repro.serve.shm import attach_slabs, create_slabs

DIMS = 8
CONFIGS = list(
    itertools.product(["hamming", "manhattan", "euclidean"], [1, 2, 3])
)


def build_index(metric="hamming", bits=2, rows=40, seed=7):
    index = FerexIndex(
        dims=DIMS, metric=metric, bits=bits, bank_rows=16, seed=seed
    )
    rng = np.random.default_rng(101)
    index.add(rng.integers(0, 1 << bits, size=(rows, DIMS)))
    return index


def make_queries(bits, n=24):
    rng = np.random.default_rng(555)
    return rng.integers(0, 1 << bits, size=(n, DIMS))


def assert_outcomes_equal(got, expected):
    assert np.array_equal(got.ids, expected.ids)
    assert np.array_equal(got.distances, expected.distances)


class TestSlabs:
    """The slab pair itself (in-process; the lifecycle semantics don't
    need a second process)."""

    def test_create_attach_roundtrip(self):
        slabs = create_slabs(1000, 2000, name_prefix="t-slab")
        try:
            # Capacities report what the OS granted (>= the ask).
            assert slabs.manifest.request_bytes >= 1000
            assert slabs.manifest.response_bytes >= 2000
            view = np.frombuffer(slabs.request.buf, dtype="<i8", count=8)
            other = attach_slabs(slabs.manifest)
            peer = np.frombuffer(other.request.buf, dtype="<i8", count=8)
            view[...] = np.arange(8)
            assert np.array_equal(peer, np.arange(8))
            del view, peer
            other.close()
        finally:
            slabs.unlink()

    def test_unlink_retires_names(self):
        slabs = create_slabs(64, 64)
        manifest = slabs.manifest
        slabs.unlink()
        with pytest.raises(FileNotFoundError):
            attach_slabs(manifest)


class TestSlabDispatchParity:
    @pytest.mark.parametrize("metric,bits", CONFIGS)
    def test_bit_identical_across_configs(self, metric, bits):
        """The acceptance sweep: slab-dispatched answers equal direct
        search at every metric x bits config, k padding included."""
        index = build_index(metric, bits)
        queries = make_queries(bits)
        with ProcReplicaPool(index, n_workers=2) as pool:
            for k in (1, 3, 41):  # 41 > live rows: (-1, inf) padding
                assert_outcomes_equal(
                    pool.search(queries, k=k), index.search(queries, k=k)
                )
            assert pool.snapshot()["n_pickle_fallbacks"] == 0
            assert pool.snapshot()["n_slab_dispatches"] == 3

    def test_object_payload_falls_back_to_pickle(self):
        """An object-dtype batch cannot ride a slab: it is pickled over
        the pipe instead, and answers exactly like the slab path."""
        index = build_index()
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=1) as pool:
            assert_outcomes_equal(
                pool.search(queries.astype(object), k=3),
                pool.search(queries, k=3),
            )
            snap = pool.snapshot()
            assert snap["n_pickle_fallbacks"] == 1
            assert snap["n_slab_dispatches"] == 1

    def test_overflow_grows_and_stays_identical(self):
        """A batch larger than the slab re-slabs the worker in place
        (no respawn) and the answers stay bit-identical."""
        index = build_index()
        with ProcReplicaPool(index, n_workers=1) as pool:
            before = pool.snapshot()["slab_request_bytes"]
            big = make_queries(2, n=4096)
            assert_outcomes_equal(
                pool.search(big, k=3), index.search(big, k=3)
            )
            snap = pool.snapshot()
            assert snap["n_slab_grows"] >= 1
            assert snap["slab_request_bytes"] > before
            assert snap["respawns"] == 0
            # The grown slab keeps serving (and doesn't re-grow).
            assert_outcomes_equal(
                pool.search(big, k=3), index.search(big, k=3)
            )
            assert pool.snapshot()["n_slab_grows"] == snap["n_slab_grows"]

    @pytest.mark.parametrize(
        "n,k,grows",
        [(1, 3, False), (64, 16, False), (65, 3, True), (64, 17, True)],
    )
    def test_fresh_slabs_hold_one_default_batch(self, n, k, grows):
        """A fresh worker's slabs carry a default-size batch (64 rows of
        ``k <= 16``) as they are; one row or one result more grows them
        once, and the answers equal direct search either way."""
        index = build_index(rows=80)
        queries = make_queries(2, n=n)
        with ProcReplicaPool(index, n_workers=1) as pool:
            assert_outcomes_equal(
                pool.search(queries, k=k), index.search(queries, k=k)
            )
            snap = pool.snapshot()
            assert snap["n_slab_grows"] == int(grows)
            assert snap["n_slab_dispatches"] == 1
            assert snap["n_pickle_fallbacks"] == 0
            assert snap["respawns"] == 0

    def test_float_queries_ride_the_slab(self):
        """Integral float batches are valid queries; the slab carries
        their dtype rather than forcing a fallback."""
        index = build_index()
        queries = make_queries(2).astype(np.float64)
        with ProcReplicaPool(index, n_workers=1) as pool:
            assert_outcomes_equal(
                pool.search(queries, k=3),
                index.search(queries.astype(int), k=3),
            )
            assert pool.snapshot()["n_slab_dispatches"] == 1

    def test_worker_errors_still_propagate(self):
        """Validation errors raised inside the worker cross the slab
        protocol like they crossed the pickle protocol."""
        index = build_index()
        with ProcReplicaPool(index, n_workers=1) as pool:
            with pytest.raises(ValueError):
                pool.search(make_queries(2), k=0)
            with pytest.raises(ValueError):
                pool.search(np.zeros((4, DIMS + 1), dtype=int), k=1)
            # The worker survives its errors.
            assert_outcomes_equal(
                pool.search(make_queries(2), k=3),
                index.search(make_queries(2), k=3),
            )


class TestSlabLifecycle:
    def test_republish_under_slab_transport(self):
        """Writes propagate: republish moves every worker to the new
        generation without touching its slabs."""
        index = build_index()
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=2) as pool:
            rng = np.random.default_rng(9)
            index.add(rng.integers(0, 4, size=(8, DIMS)))
            pool.republish()
            assert_outcomes_equal(
                pool.search(queries, k=3), index.search(queries, k=3)
            )
            assert pool.snapshot()["respawns"] == 0

    def test_multi_worker_fleet_rides_the_slabs(self):
        """Every worker of a three-worker fleet dispatches over its own
        slab pair and answers bit-identically."""
        index = build_index()
        queries = make_queries(2)
        direct = index.search(queries, k=3)
        with ProcReplicaPool(index, n_workers=3) as pool:
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(pool.search(queries, k=3), direct)
            snap = pool.snapshot()
            assert snap["n_pickle_fallbacks"] == 0
            assert snap["n_slab_dispatches"] == 2 * pool.n_workers
            assert all(served > 0 for served in snap["served_per_worker"])

    def test_crash_respawn_recreates_slabs(self):
        """Killing the whole fleet mid-stream still answers: respawned
        workers come up with fresh slabs."""
        index = build_index()
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=2) as pool:
            assert_outcomes_equal(
                pool.search(queries, k=3), index.search(queries, k=3)
            )
            for worker in pool.workers:
                worker.process.kill()
                worker.process.join()
            assert_outcomes_equal(
                pool.search(queries, k=3), index.search(queries, k=3)
            )
            assert pool.respawns >= 1
            assert pool.snapshot()["n_pickle_fallbacks"] == 0

    def test_respawn_inherits_grown_slab_sizing(self):
        """A replacement worker starts at the pool's high-water slab
        capacity, so one grown batch size never re-grows per respawn."""
        index = build_index()
        with ProcReplicaPool(index, n_workers=1) as pool:
            big = make_queries(2, n=1024)
            pool.search(big, k=3)
            grows = pool.snapshot()["n_slab_grows"]
            assert grows >= 1
            pool.workers[0].process.kill()
            pool.workers[0].process.join()
            assert_outcomes_equal(
                pool.search(big, k=3), index.search(big, k=3)
            )
            assert pool.snapshot()["n_slab_grows"] == grows
