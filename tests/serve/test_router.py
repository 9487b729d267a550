"""ReplicaRouter: the single-writer / many-reader gate over one index."""

import asyncio

import numpy as np
import pytest

from repro.serve import ReplicaRouter


class TestReads:
    def test_reads_run_concurrently_on_the_index(self, make_index):
        async def main():
            index = make_index()
            router = ReplicaRouter(index)
            async with router.read() as first:
                async with router.read() as second:
                    assert first is second is index

        asyncio.run(main())

    def test_read_slot_is_released_when_the_reader_raises(
        self, make_index
    ):
        async def main():
            router = ReplicaRouter(make_index())
            with pytest.raises(RuntimeError):
                async with router.read():
                    raise RuntimeError("reader failed")
            # A leaked slot would park this write forever.
            await asyncio.wait_for(
                router.write(lambda index: index.remove([0])), timeout=5
            )

        asyncio.run(main())

    def test_write_waits_for_every_acquired_slot(self, make_index):
        async def main():
            router = ReplicaRouter(make_index())
            await router.acquire_read()
            await router.acquire_read()
            write = asyncio.ensure_future(
                router.write(lambda index: index.remove([0]))
            )
            router.release_read()
            await asyncio.sleep(0.01)
            assert not write.done()  # one reader still holds a slot
            router.release_read()
            await asyncio.wait_for(write, timeout=5)
            assert router.index.ntotal == 39

        asyncio.run(main())

    @pytest.mark.parametrize("n_readers", [1, 4, 16])
    def test_reads_parked_behind_a_writer_all_resume_after_it(
        self, make_index, n_readers
    ):
        import time as time_mod

        async def main():
            router = ReplicaRouter(make_index())
            seen = []

            def slow_add(index):
                time_mod.sleep(0.02)  # in the executor
                return index.add(np.zeros((1, 8), dtype=int))

            async def reader():
                async with router.read() as index:
                    seen.append(index.ntotal)

            write = asyncio.ensure_future(router.write(slow_add))
            await asyncio.sleep(0.005)  # the writer holds the gate
            await asyncio.wait_for(
                asyncio.gather(*(reader() for _ in range(n_readers))),
                timeout=5,
            )
            assert write.done()
            assert seen == [41] * n_readers

        asyncio.run(main())


class TestWrites:
    def test_write_returns_the_mutation_result(self, make_index, rng):
        async def main():
            index = make_index()
            router = ReplicaRouter(index)
            extra = rng.integers(0, 4, size=(5, 8))
            ids = await router.write(lambda index: index.add(extra))
            assert ids.tolist() == list(range(40, 45))
            assert index.ntotal == 45

        asyncio.run(main())

    def test_write_waits_for_inflight_reads(self, make_index):
        events = []

        async def main():
            router = ReplicaRouter(make_index())

            async def reader():
                async with router.read():
                    events.append("read-start")
                    await asyncio.sleep(0.02)
                    events.append("read-end")

            async def writer():
                await asyncio.sleep(0.005)  # let the reader in first

                def mutate(index):
                    events.append("write")
                    return index.remove([0])

                await router.write(mutate)

            await asyncio.gather(reader(), writer())
            assert events == ["read-start", "read-end", "write"]

        asyncio.run(main())

    def test_reads_wait_for_active_writer(self, make_index):
        events = []

        async def main():
            router = ReplicaRouter(make_index())

            async def writer():
                def mutate(index):
                    events.append("write")
                    return index.remove([0])

                await router.write(mutate)
                await asyncio.sleep(0.02)

            async def reader():
                await asyncio.sleep(0.005)
                async with router.read():
                    events.append("read")

            await asyncio.gather(writer(), reader())
            assert events == ["write", "read"]

        asyncio.run(main())

    def test_rejected_write_changes_nothing_and_keeps_serving(
        self, make_index
    ):
        async def main():
            index = make_index()
            router = ReplicaRouter(index)
            with pytest.raises(KeyError):
                await router.write(lambda index: index.remove([999]))
            assert index.write_generation == 1  # the preload add only
            async with router.read() as served:
                assert served.ntotal == 40

        asyncio.run(main())

    def test_cancelled_write_finishes_before_reads_resume(
        self, make_index
    ):
        """Regression: a caller timing out mid-write must not re-admit
        reads while the mutation is still running on its thread."""
        import time as time_mod

        async def main():
            index = make_index()
            router = ReplicaRouter(index)

            def slow_mutate(index):
                time_mod.sleep(0.03)  # in the executor
                return index.add(np.full((1, 8), 2, dtype=int))

            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    router.write(slow_mutate), timeout=0.01
                )
            assert index.write_generation == 2  # preload + slow_mutate
            async with router.read() as served:
                assert served.ntotal == 41

        asyncio.run(main())

    def test_concurrent_writes_apply_one_at_a_time_in_order(
        self, make_index
    ):
        import time as time_mod

        async def main():
            router = ReplicaRouter(make_index())
            log = []

            def mutation(tag):
                def mutate(index):
                    log.append(("start", tag))
                    time_mod.sleep(0.005)  # in the executor
                    log.append(("end", tag))
                    return index.add(np.full((1, 8), tag, dtype=int))

                return mutate

            ids = await asyncio.gather(
                *(router.write(mutation(tag)) for tag in range(3))
            )
            assert [i.tolist() for i in ids] == [[40], [41], [42]]
            assert log == [
                (edge, tag) for tag in range(3) for edge in ("start", "end")
            ]

        asyncio.run(main())

    def test_failed_write_does_not_block_the_next_one(self, make_index):
        async def main():
            router = ReplicaRouter(make_index())
            with pytest.raises(KeyError):
                await router.write(lambda index: index.remove([999]))
            ids = await asyncio.wait_for(
                router.write(
                    lambda index: index.add(np.zeros((1, 8), dtype=int))
                ),
                timeout=5,
            )
            assert ids.tolist() == [40]

        asyncio.run(main())

    def test_event_loop_keeps_running_during_a_write(self, make_index):
        import time as time_mod

        async def main():
            router = ReplicaRouter(make_index())
            ticks = 0

            def slow_remove(index):
                time_mod.sleep(0.05)  # in the executor
                return index.remove([0])

            write = asyncio.ensure_future(router.write(slow_remove))
            while not write.done():
                ticks += 1
                await asyncio.sleep(0.001)
            await write
            assert ticks > 5

        asyncio.run(main())
