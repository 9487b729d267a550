"""ProcReplicaPool + shared-memory segments: bit-identity with direct
index search, crash recovery, and write→republish visibility."""

import gc
import os
import time

import numpy as np
import pytest

from repro.core.engine import NotProgrammedError
from repro.index import FerexIndex
from repro.serve import (
    ProcReplicaPool,
    SegmentIntegrityError,
    attach_index,
    publish_index,
)

DIMS = 8


def build_index(metric="hamming", bits=2, backend="ferex", rows=40, seed=7):
    index = FerexIndex(
        dims=DIMS,
        metric=metric,
        bits=bits,
        backend=backend,
        bank_rows=16,
        seed=seed if backend == "ferex" else None,
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


class TestSegments:
    """The shm publish/attach layer underneath the pool (in-process:
    the zero-copy + parity semantics don't need a second process)."""

    def test_attached_replica_is_bit_identical_and_zero_copy(self):
        index = build_index()
        queries = make_queries(2)
        published = publish_index(index)
        try:
            replica, attached = attach_index(published.manifest)
            try:
                assert_outcomes_equal(
                    replica.search(queries, k=3), index.search(queries, k=3)
                )
                # The canonical arrays alias the shared blocks — no
                # per-replica copy of the index state.
                assert not replica._vectors.flags.owndata
                assert not replica._vectors.flags.writeable
                assert (
                    replica.content_fingerprint()
                    == index.content_fingerprint()
                    == published.manifest.fingerprint
                )
            finally:
                del replica
                gc.collect()
                attached.close()
        finally:
            published.unlink()

    def test_attached_replica_refuses_mutation(self):
        index = build_index()
        published = publish_index(index)
        try:
            replica, attached = attach_index(published.manifest)
            try:
                with pytest.raises(ValueError, match="read-only"):
                    replica.add(make_queries(2)[:1])
                with pytest.raises(ValueError, match="read-only"):
                    replica.remove([0])
                with pytest.raises(ValueError, match="read-only"):
                    replica.compact()
            finally:
                del replica
                gc.collect()
                attached.close()
        finally:
            published.unlink()

    def test_corrupted_segment_is_rejected_at_attach(self):
        """The attach-time parity check: a snapshot whose bytes do not
        hash to the published fingerprint must never serve."""
        from multiprocessing import shared_memory

        index = build_index()
        published = publish_index(index)
        try:
            spec = published.manifest.arrays["vectors"]
            block = shared_memory.SharedMemory(name=spec.name)
            try:
                view = np.frombuffer(block.buf, dtype=spec.dtype)
                view[0] = (view[0] + 1) % (1 << index.bits)  # stay in-range
                del view
            finally:
                block.close()
            with pytest.raises(SegmentIntegrityError):
                attach_index(published.manifest)
        finally:
            published.unlink()

    def test_tombstones_survive_publish(self):
        index = build_index()
        index.remove([3, 17])
        queries = make_queries(2)
        published = publish_index(index)
        try:
            replica, attached = attach_index(published.manifest)
            try:
                assert replica.ntotal == index.ntotal
                assert_outcomes_equal(
                    replica.search(queries, k=5), index.search(queries, k=5)
                )
            finally:
                del replica
                gc.collect()
                attached.close()
        finally:
            published.unlink()

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc maps"
    )
    def test_close_frees_a_replica_left_in_cyclic_garbage(self):
        """A replica that only a reference cycle still holds keeps its
        views exported: ``close`` collects once and unmaps anyway."""
        index = build_index()
        published = publish_index(index)
        try:
            replica, attached = attach_index(published.manifest)
            cycle = [replica]
            cycle.append(cycle)
            del replica, cycle
            gc.disable()
            try:
                attached.close()
            finally:
                gc.enable()
            with open("/proc/self/maps") as maps:
                mapped = maps.read()
            names = [spec.name for spec in published.manifest.arrays.values()]
            # The publisher's own mappings carry the same names: count
            # one mapping per block, not two.
            assert [mapped.count(name) for name in names] == [1] * len(names)
        finally:
            published.unlink()


class TestPoolParity:
    @pytest.mark.parametrize("metric", ["hamming", "manhattan"])
    @pytest.mark.parametrize("bits", [1, 2])
    def test_pool_matches_direct_search_ferex(self, metric, bits):
        """The acceptance property: pool answers are bit-identical to
        direct ``FerexIndex.search`` across metrics × bits."""
        index = build_index(metric=metric, bits=bits)
        queries = make_queries(bits)
        direct = index.search(queries, k=3)
        with ProcReplicaPool(index, n_workers=2) as pool:
            assert_outcomes_equal(pool.search(queries, k=3), direct)
            # Every worker answers identically, not just one of them.
            expected = index.search(queries[:5], k=2)
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(pool.search(queries[:5], k=2), expected)

    def test_pool_matches_direct_search_exact_backend(self):
        index = build_index(backend="exact")
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=1) as pool:
            assert_outcomes_equal(
                pool.search(queries, k=4), index.search(queries, k=4)
            )

    def test_padding_beyond_live_rows(self):
        index = build_index(rows=6)
        queries = make_queries(2, n=3)
        with ProcReplicaPool(index, n_workers=1) as pool:
            outcome = pool.search(queries, k=10)
            assert outcome.ids.shape == (3, 10)
            assert (outcome.ids[:, 6:] == -1).all()
            assert np.isinf(outcome.distances[:, 6:]).all()

    def test_worker_errors_propagate(self):
        index = FerexIndex(dims=DIMS, metric="hamming", bits=2)
        index.add(make_queries(2, n=4))
        with ProcReplicaPool(index, n_workers=1) as pool:
            with pytest.raises(ValueError):
                pool.search(make_queries(2, n=2), k=0)
            bad = make_queries(2, n=2)
            bad[0, 0] = 99
            with pytest.raises(ValueError):
                pool.search(bad, k=1)
            # The worker survives its errors.
            assert_outcomes_equal(
                pool.search(make_queries(2, n=2), k=1),
                index.search(make_queries(2, n=2), k=1),
            )

    def test_empty_index_error_crosses_the_pipe(self):
        index = FerexIndex(dims=DIMS, metric="hamming", bits=2)
        with ProcReplicaPool(index, n_workers=1) as pool:
            with pytest.raises(NotProgrammedError):
                pool.search(make_queries(2, n=1), k=1)

    def test_validation(self):
        index = build_index()
        with pytest.raises(ValueError):
            ProcReplicaPool(index, n_workers=0)


class TestCrashRecovery:
    def test_killed_worker_is_respawned_and_answers_stay_identical(self):
        index = build_index()
        queries = make_queries(2)
        direct = index.search(queries, k=3)
        with ProcReplicaPool(index, n_workers=2) as pool:
            assert_outcomes_equal(pool.search(queries, k=3), direct)
            victim = pool.workers[0]
            victim.process.kill()
            victim.process.join(timeout=5)
            # Every subsequent answer (including the requests that land
            # on the dead worker before the pool notices) is identical.
            for _ in range(2 * pool.n_workers + 1):
                assert_outcomes_equal(pool.search(queries, k=3), direct)
            assert pool.respawns >= 1
            assert all(w.process.is_alive() for w in pool.workers)

    def test_crash_during_republish_recovers_on_new_generation(self):
        index = build_index()
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=2) as pool:
            pool.workers[1].process.kill()
            pool.workers[1].process.join(timeout=5)
            index.add(make_queries(2, n=2))
            pool.republish()
            direct = index.search(queries, k=3)
            assert pool.generation == index.write_generation
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(pool.search(queries, k=3), direct)


class TestRepublish:
    def test_write_then_republish_becomes_visible(self):
        index = build_index(rows=12)
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=2) as pool:
            before = index.search(queries, k=3)
            assert_outcomes_equal(pool.search(queries, k=3), before)
            # Mutate the primary: workers keep serving the published
            # generation until republish.
            added = index.add(queries[:2])
            removed_direct = index.search(queries, k=3)
            assert_outcomes_equal(pool.search(queries, k=3), before)
            assert pool.generation < index.write_generation

            generation = pool.republish()
            assert generation == index.write_generation == pool.generation
            after = pool.search(queries, k=3)
            assert_outcomes_equal(after, removed_direct)
            # The added vectors are now findable: their own queries
            # resolve to their ids at distance rank 0.
            hit = pool.search(queries[:2], k=1)
            assert hit.ids[:, 0].tolist() == [int(i) for i in added]

    def test_failed_republish_poisons_the_pool(self, monkeypatch):
        """Regression: a republish that cannot refill every worker slot
        must poison the pool — a fleet straddling generations may never
        serve (the server's cache would file old answers under the new
        generation)."""
        from repro.serve import PoolBrokenError

        index = build_index(rows=10)
        queries = make_queries(2, n=4)
        with ProcReplicaPool(index, n_workers=2) as pool:
            pool.workers[0].process.kill()
            pool.workers[0].process.join(timeout=5)
            monkeypatch.setattr(
                pool,
                "_replace",
                lambda worker: (_ for _ in ()).throw(
                    RuntimeError("respawn denied")
                ),
            )
            index.add(queries[:1])
            with pytest.raises(PoolBrokenError, match="straddling"):
                pool.republish()
            with pytest.raises(PoolBrokenError):
                pool.search(queries, k=1)

    def test_server_refuses_generation_mismatch(self):
        """Regression: a primary mutated out-of-band (no republish)
        must fail pooled reads loudly instead of serving — and caching
        — the workers' stale snapshot under the new generation."""
        import asyncio

        from repro.serve import FerexServer, PoolBrokenError

        index = build_index(rows=10)
        queries = make_queries(2, n=2)

        async def main(pool):
            async with FerexServer(
                pool=pool, max_wait_ms=0.5, cache_size=8
            ) as server:
                await server.search(queries[0], k=1)  # in sync: fine
                index.add(queries[:1])  # bypasses the server write path
                with pytest.raises(PoolBrokenError, match="generation"):
                    await server.search(queries[1], k=1)
            # A server built over an already-stale pool is rejected up
            # front rather than failing on every request.
            with pytest.raises(ValueError, match="republish"):
                FerexServer(pool=pool)
            pool.republish()
            FerexServer(pool=pool)  # back in sync: accepted

        with ProcReplicaPool(index, n_workers=1) as pool:
            asyncio.run(main(pool))

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="needs /proc maps"
    )
    def test_republish_unmaps_every_retired_generation(self):
        """Twenty republishes: neither a worker nor the publisher still
        maps a segment of a retired generation, and every generation
        answers bit-identically to direct search."""
        index = build_index(rows=12)
        queries = make_queries(2)
        rng = np.random.default_rng(9)
        retired = []
        with ProcReplicaPool(index, n_workers=2) as pool:
            for _ in range(20):
                manifest = pool._published.manifest
                retired += [spec.name for spec in manifest.arrays.values()]
                index.add(rng.integers(0, 4, size=(1, DIMS)))
                pool.republish()
                assert_outcomes_equal(
                    pool.search(queries, k=3), index.search(queries, k=3)
                )
            pids = [worker.process.pid for worker in pool.workers]
            for pid in pids + [os.getpid()]:
                with open(f"/proc/{pid}/maps") as maps:
                    mapped = maps.read()
                assert [name for name in retired if name in mapped] == []

    def test_generation_is_monotone_across_republishes(self):
        index = build_index(rows=10)
        with ProcReplicaPool(index, n_workers=1) as pool:
            seen = [pool.generation]
            for wave in range(3):
                index.add(make_queries(2, n=1))
                seen.append(pool.republish())
            assert seen == sorted(seen)
            assert len(set(seen)) == len(seen)


class TestPooledServer:
    def test_server_over_pool_is_bit_identical_and_write_visible(self):
        import asyncio

        from repro.serve import FerexServer

        index = build_index()
        queries = make_queries(2)
        direct = index.search(queries, k=3)

        async def main(pool):
            async with FerexServer(
                pool=pool,
                max_batch_size=8,
                max_wait_ms=1.0,
                cache_size=32,
            ) as server:
                results = await asyncio.gather(
                    *(server.search(q, k=3) for q in queries)
                )
                ids = np.stack([r.ids for r in results])
                distances = np.stack([r.distances for r in results])
                assert np.array_equal(ids, direct.ids)
                assert np.array_equal(distances, direct.distances)
                # A server write republishes inside the single-writer
                # critical section: the next read must see it.
                new_ids = await server.add(queries[:1])
                post = await server.search(queries[0], k=1)
                assert int(post.ids[0]) == int(new_ids[0])
                assert pool.generation == index.write_generation

        with ProcReplicaPool(index, n_workers=2) as pool:
            asyncio.run(main(pool))

    def test_write_survives_republish_failure_and_reads_stay_fenced(
        self, monkeypatch
    ):
        """Regression: the write contract is atomic-error — an
        exception must mean nothing changed.  A republish failure after
        a successful mutation therefore reports write success (raising
        would invite duplicate-inserting retries) while reads fail
        loudly until the pool re-syncs."""
        import asyncio

        from repro.serve import FerexServer, PoolBrokenError

        index = build_index(rows=10)
        queries = make_queries(2, n=3)

        async def main(pool):
            async with FerexServer(
                pool=pool, max_wait_ms=0.5, cache_size=8
            ) as server:
                real_republish = pool.republish
                monkeypatch.setattr(
                    pool,
                    "republish",
                    lambda: (_ for _ in ()).throw(OSError("shm full")),
                )
                new_ids = await server.add(queries[:1])  # write succeeds
                assert len(new_ids) == 1
                assert int(new_ids[0]) in index._id_to_pos
                assert isinstance(server.last_republish_error, OSError)
                with pytest.raises(PoolBrokenError, match="generation"):
                    await server.search(queries[0], k=1)
                # The next clean write re-syncs the fleet and clears
                # the sticky error.
                monkeypatch.setattr(pool, "republish", real_republish)
                await server.add(queries[1:2])
                assert server.last_republish_error is None
                outcome = await server.search(queries[0], k=1)
                direct = index.search(queries[0][None], k=1)
                assert np.array_equal(outcome.ids, direct.ids[0])

        with ProcReplicaPool(index, n_workers=1) as pool:
            asyncio.run(main(pool))

    def test_pooled_server_rejects_foreign_replicas(self):
        import asyncio

        from repro.serve import FerexServer

        index = build_index()
        other = build_index()

        async def main():
            with ProcReplicaPool(index, n_workers=1) as pool:
                with pytest.raises(ValueError, match="primary"):
                    FerexServer(other, pool=pool)
            with pytest.raises(ValueError):
                FerexServer()

        asyncio.run(main())


def test_pool_close_releases_workers_and_segments():
    index = build_index(rows=8)
    pool = ProcReplicaPool(index, n_workers=2)
    workers = pool.workers
    manifest = pool._published.manifest
    pool.close()
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and any(
        w.process.is_alive() for w in workers
    ):
        time.sleep(0.05)
    assert not any(w.process.is_alive() for w in workers)
    with pytest.raises((RuntimeError, FileNotFoundError)):
        attach_index(manifest)  # segments are gone
    with pytest.raises(RuntimeError):
        pool.search(make_queries(2, n=1), k=1)



class TestFixedFleet:
    """A pool keeps the worker count it was built with: every worker of
    a multi-worker fleet answers bit-identically, republish moves all of
    them, and in-flight searches quiesce around a republish."""

    def test_every_worker_answers_bit_identically(self):
        index = build_index()
        queries = make_queries(2)
        direct = index.search(queries, k=3)
        with ProcReplicaPool(index, n_workers=3) as pool:
            # Enough round-robin passes to land on every worker.
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(pool.search(queries, k=3), direct)
            assert all(
                served > 0
                for served in pool.snapshot()["served_per_worker"]
            )

    def test_every_worker_serves_the_republished_generation(self):
        """After a write and a republish no worker still answers from
        the boot-time generation."""
        index = build_index()
        with ProcReplicaPool(index, n_workers=3) as pool:
            rng = np.random.default_rng(77)
            index.add(rng.integers(0, 4, size=(5, DIMS)))
            pool.republish()
            queries = make_queries(2)
            direct = index.search(queries, k=3)
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(pool.search(queries, k=3), direct)
            assert pool.respawns == 0

    def test_republish_quiesces_under_live_load(self):
        """Republishing while searches are in flight drops nothing:
        every request completes, answered wholly by the old or wholly by
        the new generation, and the fleet serves the new one after."""
        import threading

        index = build_index()
        queries = make_queries(2)
        before = index.search(queries, k=3)
        with ProcReplicaPool(index, n_workers=3) as pool:
            outcomes = []
            errors = []

            def hammer():
                try:
                    for _ in range(20):
                        outcomes.append(pool.search(queries, k=3))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            index.add(queries[:4])
            after = index.search(queries, k=3)
            pool.republish()
            for thread in threads:
                thread.join()
            assert errors == []
            assert len(outcomes) == 60  # nothing dropped
            assert not np.array_equal(before.ids, after.ids)
            for outcome in outcomes:
                same_as_before = np.array_equal(outcome.ids, before.ids)
                assert_outcomes_equal(
                    outcome, before if same_as_before else after
                )
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(pool.search(queries, k=3), after)

    def test_republish_interleaves_add_and_remove(self):
        """add -> republish -> remove -> republish: every step leaves a
        fleet that answers identically to the primary."""
        index = build_index()
        rng = np.random.default_rng(99)
        queries = make_queries(2)
        with ProcReplicaPool(index, n_workers=2) as pool:
            index.add(rng.integers(0, 4, size=(4, DIMS)))
            pool.republish()
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(
                    pool.search(queries, k=3), index.search(queries, k=3)
                )
            index.remove(index.search(queries[:1], k=1).ids[0].tolist())
            pool.republish()
            for _ in range(2 * pool.n_workers):
                assert_outcomes_equal(
                    pool.search(queries, k=3), index.search(queries, k=3)
                )

    def test_closed_pool_refuses_republish(self):
        index = build_index(rows=8)
        pool = ProcReplicaPool(index, n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.republish()
        assert pool.generation == -1
