"""RequestCoalescer: micro-batching, flush triggers, cancellation."""

import asyncio

import numpy as np
import pytest

from repro.serve import DeadlineExceededError, RequestCoalescer


class Recorder:
    """Dispatch stub: answers with (query-sum, k) rows and records every
    batch it sees."""

    def __init__(self, delay_s=0.0, fail=False):
        self.batches = []
        self.delay_s = delay_s
        self.fail = fail

    async def __call__(self, queries, k):
        self.batches.append((np.array(queries), k))
        if self.delay_s:
            await asyncio.sleep(self.delay_s)
        if self.fail:
            raise RuntimeError("backend exploded")
        n = len(queries)
        ids = np.tile(queries.sum(axis=1)[:, None], (1, k))
        distances = np.full((n, k), float(k))
        return ids, distances


def test_batch_flushes_at_max_size():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=10_000
        )
        queries = [np.full(3, i) for i in range(4)]
        results = await asyncio.gather(
            *(coalescer.submit(q, 2) for q in queries)
        )
        # One dispatch of all four, despite the enormous wait knob.
        assert len(recorder.batches) == 1
        assert len(recorder.batches[0][0]) == 4
        for i, (ids, distances) in enumerate(results):
            assert ids.tolist() == [3 * i, 3 * i]
        await coalescer.close()

    asyncio.run(main())


def test_partial_batch_flushes_after_max_wait():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=64, max_wait_ms=5
        )
        ids, distances = await asyncio.wait_for(
            coalescer.submit(np.zeros(3, dtype=int), 1), timeout=5
        )
        assert len(recorder.batches) == 1
        assert ids.tolist() == [0]
        await coalescer.close()

    asyncio.run(main())


def test_distinct_k_split_into_separate_dispatches():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=1
        )
        results = await asyncio.gather(
            *(
                coalescer.submit(np.full(3, i), 1 + (i % 2))
                for i in range(8)
            )
        )
        ks = sorted(k for _, k in recorder.batches)
        assert ks == [1, 2]
        for i, (ids, _) in enumerate(results):
            assert ids.shape == (1 + (i % 2),)
        await coalescer.close()

    asyncio.run(main())


def test_oversize_wave_splits_into_capped_batches():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=1
        )
        await asyncio.gather(
            *(coalescer.submit(np.full(3, i), 1) for i in range(10))
        )
        sizes = sorted(len(batch) for batch, _ in recorder.batches)
        assert sum(sizes) == 10
        assert max(sizes) <= 4
        await coalescer.close()

    asyncio.run(main())


def test_cancelled_caller_drops_out_before_dispatch():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=20
        )
        doomed = asyncio.ensure_future(
            coalescer.submit(np.zeros(3, dtype=int), 1)
        )
        survivor = asyncio.ensure_future(
            coalescer.submit(np.ones(3, dtype=int), 1)
        )
        await asyncio.sleep(0)  # both parked, nothing flushed yet
        doomed.cancel()
        ids, _ = await survivor
        assert ids.tolist() == [3]
        with pytest.raises(asyncio.CancelledError):
            await doomed
        # The cancelled query never reached the backend.
        assert len(recorder.batches) == 1
        assert len(recorder.batches[0][0]) == 1
        await coalescer.close()

    asyncio.run(main())


def test_cancel_during_adaptive_fast_path_park_leaves_no_ghost():
    """Regression: a caller cancelled during the fast path's one-tick
    park never reaches the await on its future, so the done-future
    filter can't drop it — the entry must be removed explicitly or it
    lingers in the queue and is dispatched as wasted work later."""
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=1
        )
        # Warm the EWMAs: one served request gives a (tiny) service
        # estimate, and the wall-clock gap to the next submit exceeds
        # it, so the next lone submit takes the fast path.
        await coalescer.submit(np.zeros(3, dtype=int), 1)
        doomed = asyncio.ensure_future(
            coalescer.submit(np.ones(3, dtype=int), 1)
        )
        await asyncio.sleep(0)  # advance doomed to its one-tick park
        assert coalescer.n_pending == 1
        doomed.cancel()
        with pytest.raises(asyncio.CancelledError):
            await doomed
        assert coalescer.n_pending == 0  # no ghost left behind
        ids, _ = await coalescer.submit(np.full(3, 2, dtype=int), 1)
        assert ids.tolist() == [6]
        # The cancelled query (row sum 3) never reached the backend,
        # alone or as a stowaway in a later batch.
        assert all(
            (batch.sum(axis=1) != 3).all() for batch, _ in recorder.batches
        )
        assert all(len(batch) == 1 for batch, _ in recorder.batches)
        await coalescer.close()

    asyncio.run(main())


def test_fast_path_park_cannot_exceed_max_batch_size():
    """Regression: a request parked by the sparse fast path (which
    bypasses the normal size-trigger check) joined by a same-tick
    arrival must still dispatch in batches capped at max_batch_size."""
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=1, max_wait_ms=1
        )
        await coalescer.submit(np.zeros(3, dtype=int), 1)  # warm EWMAs
        results = await asyncio.gather(
            coalescer.submit(np.ones(3, dtype=int), 1),
            coalescer.submit(np.full(3, 2, dtype=int), 1),
        )
        assert [ids.tolist() for ids, _ in results] == [[3], [6]]
        assert all(len(batch) <= 1 for batch, _ in recorder.batches)
        await coalescer.close()

    asyncio.run(main())


def test_timeout_mid_dispatch_leaves_batch_unharmed():
    recorder = Recorder(delay_s=0.05)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=1
        )
        slowpoke = coalescer.submit(np.zeros(3, dtype=int), 1)
        survivor = asyncio.ensure_future(
            coalescer.submit(np.ones(3, dtype=int), 1)
        )
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(slowpoke, timeout=0.01)
        ids, _ = await survivor
        assert ids.tolist() == [3]
        await coalescer.close()

    asyncio.run(main())


def test_dispatch_error_propagates_to_every_caller():
    recorder = Recorder(fail=True)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=1
        )
        results = await asyncio.gather(
            coalescer.submit(np.zeros(3, dtype=int), 1),
            coalescer.submit(np.ones(3, dtype=int), 1),
            return_exceptions=True,
        )
        assert all(isinstance(r, RuntimeError) for r in results)
        await coalescer.close()

    asyncio.run(main())


def test_ragged_batch_resolves_every_future():
    """Regression: a failure while *assembling* the batch (np.stack on
    ragged queries) must propagate to every caller instead of leaving
    them awaiting forever."""
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=1
        )
        results = await asyncio.wait_for(
            asyncio.gather(
                coalescer.submit(np.zeros(3, dtype=int), 1),
                coalescer.submit(np.zeros(4, dtype=int), 1),  # ragged
                return_exceptions=True,
            ),
            timeout=5,
        )
        assert all(isinstance(r, ValueError) for r in results)
        assert recorder.batches == []  # never reached the backend
        await coalescer.close()

    asyncio.run(main())


def test_short_dispatch_result_resolves_every_future():
    """Regression: a dispatch returning fewer rows than the batch must
    fail every caller instead of hanging the overflow."""

    async def short_dispatch(queries, k):
        return (
            np.zeros((len(queries) - 1, k), dtype=np.int64),
            np.zeros((len(queries) - 1, k)),
        )

    async def main():
        coalescer = RequestCoalescer(
            short_dispatch, max_batch_size=2, max_wait_ms=1
        )
        results = await asyncio.wait_for(
            asyncio.gather(
                coalescer.submit(np.zeros(3, dtype=int), 1),
                coalescer.submit(np.ones(3, dtype=int), 1),
                return_exceptions=True,
            ),
            timeout=5,
        )
        assert all(isinstance(r, ValueError) for r in results)
        await coalescer.close()

    asyncio.run(main())


def test_close_flushes_parked_requests_then_refuses():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=64, max_wait_ms=60_000
        )
        parked = asyncio.ensure_future(
            coalescer.submit(np.zeros(3, dtype=int), 1)
        )
        await asyncio.sleep(0)
        await coalescer.close()
        ids, _ = await parked
        assert ids.tolist() == [0]
        with pytest.raises(RuntimeError, match="closed"):
            await coalescer.submit(np.zeros(3, dtype=int), 1)

    asyncio.run(main())


def test_knob_validation():
    async def main():
        recorder = Recorder()
        with pytest.raises(ValueError):
            RequestCoalescer(recorder, max_batch_size=0)
        with pytest.raises(ValueError):
            RequestCoalescer(recorder, max_wait_ms=-1)

    asyncio.run(main())


def test_expired_deadline_rejected_at_submit():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=10
        )
        loop = asyncio.get_running_loop()
        with pytest.raises(DeadlineExceededError):
            await coalescer.submit(
                np.zeros(3, dtype=int), 1, deadline=loop.time() - 0.001
            )
        # Nothing was parked, nothing dispatched, nothing counted as a
        # queue drop (the request never entered the queue).
        assert coalescer.n_pending == 0
        assert recorder.batches == []
        assert coalescer.n_deadline_drops == 0
        await coalescer.close()

    asyncio.run(main())


def test_deadline_expiring_while_parked_is_dropped_at_flush():
    recorder = Recorder()

    async def main():
        # The flush window (30 ms) far exceeds the 2 ms deadline: the
        # doomed request is parked alive, then expires before dispatch.
        coalescer = RequestCoalescer(
            recorder, max_batch_size=16, max_wait_ms=30
        )
        loop = asyncio.get_running_loop()
        doomed = asyncio.ensure_future(
            coalescer.submit(
                np.zeros(3, dtype=int), 1, deadline=loop.time() + 0.002
            )
        )
        patient = asyncio.ensure_future(
            coalescer.submit(np.full(3, 5), 1)
        )
        with pytest.raises(DeadlineExceededError):
            await doomed
        ids, _ = await patient
        # The survivor rode a batch that no longer carried the stale
        # row: dead work never reaches the index.
        assert ids.tolist() == [15]
        assert len(recorder.batches) == 1
        assert recorder.batches[0][0].shape == (1, 3)
        assert coalescer.n_deadline_drops == 1
        await coalescer.close()

    asyncio.run(main())


def test_unexpired_deadline_is_served_normally():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=4, max_wait_ms=1
        )
        loop = asyncio.get_running_loop()
        ids, _ = await coalescer.submit(
            np.full(3, 2), 1, deadline=loop.time() + 10.0
        )
        assert ids.tolist() == [6]
        assert coalescer.n_deadline_drops == 0
        await coalescer.close()

    asyncio.run(main())


def test_service_and_gap_ewmas_are_none_until_observed():
    recorder = Recorder(delay_s=0.001)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=2, max_wait_ms=50
        )
        assert coalescer.ewma_service_s is None
        assert coalescer.ewma_gap_s is None
        await asyncio.gather(
            coalescer.submit(np.zeros(3, dtype=int), 1),
            coalescer.submit(np.full(3, 1), 1),
        )
        assert coalescer.ewma_service_s is not None
        assert coalescer.ewma_service_s > 0.0
        # Two arrivals -> one inter-arrival gap observed.
        assert coalescer.ewma_gap_s is not None
        assert coalescer.ewma_gap_s >= 0.0
        await coalescer.close()

    asyncio.run(main())


# The adaptive flush window (the coalescer's only wait policy).
def observed(max_wait_ms, gap_s, service_s):
    """A coalescer whose EWMAs read ``gap_s`` / ``service_s`` (``None``
    = not observed yet), fed through its own observers."""
    coalescer = RequestCoalescer(Recorder(), max_wait_ms=max_wait_ms)
    if gap_s is not None:
        coalescer._observe_arrival(0.0)
        coalescer._observe_arrival(gap_s)
    if service_s is not None:
        coalescer._observe_service(service_s)
    return coalescer


@pytest.mark.parametrize(
    "max_wait_ms,gap_s,service_s,expected_s",
    [
        (2.0, None, None, 0.002),  # nothing seen: the full ceiling
        (2.0, None, 0.001, 0.002),  # a service time alone changes nothing
        (2.0, 0.01, None, 0.0),  # gap above the ceiling-as-service
        (2.0, 0.0001, None, 0.0008),  # gap below it: WAIT_GAIN * gap
        (2.0, 0.0001, 0.001, 0.0008),
        (2.0, 0.001, 0.0005, 0.0),  # arrivals slower than service
        (2.0, 0.0005, 0.0005, 0.0),  # a tie does not wait either
        (2.0, 0.0009, 0.001, 0.002),  # WAIT_GAIN * gap clamped
        (0.0, 0.0001, 0.001, 0.0),  # a zero ceiling never waits
    ],
)
def test_next_wait_follows_the_window_rule(
    max_wait_ms, gap_s, service_s, expected_s
):
    coalescer = observed(max_wait_ms, gap_s, service_s)
    assert coalescer.next_wait_s() == pytest.approx(expected_s)
    assert 0.0 <= coalescer.next_wait_s() <= coalescer.max_wait_s


def test_ewmas_smooth_with_the_class_alpha():
    coalescer = RequestCoalescer(Recorder())
    alpha = RequestCoalescer.EWMA_ALPHA
    for now in (0.0, 0.1, 0.3):
        coalescer._observe_arrival(now)
    assert coalescer.ewma_gap_s == pytest.approx(
        alpha * 0.2 + (1 - alpha) * 0.1
    )
    coalescer._observe_service(0.004)
    coalescer._observe_service(0.008)
    assert coalescer.ewma_service_s == pytest.approx(
        alpha * 0.008 + (1 - alpha) * 0.004
    )


def test_one_long_idle_gap_is_capped_at_one_second():
    coalescer = RequestCoalescer(Recorder())
    coalescer._observe_arrival(0.0)
    coalescer._observe_arrival(3600.0)
    assert coalescer.ewma_gap_s == 1.0


def test_first_request_waits_the_full_ceiling():
    recorder = Recorder()

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=3
        )
        await coalescer.submit(np.zeros(3, dtype=int), 1)
        assert list(coalescer.scheduled_waits) == [pytest.approx(0.003)]
        await coalescer.close()

    asyncio.run(main())


def test_burst_after_idle_reopens_the_window_and_batches():
    """A lone request after an idle spell gets a zero window, and the
    burst that follows drives the gap EWMA under the service time, so
    the window opens again and the burst still coalesces."""
    recorder = Recorder(delay_s=0.002)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=64, max_wait_ms=5
        )
        await coalescer.submit(np.zeros(3, dtype=int), 1)
        await asyncio.sleep(0.05)
        await coalescer.submit(np.ones(3, dtype=int), 1)
        assert coalescer.scheduled_waits[-1] == 0.0
        for _ in range(4):
            await asyncio.gather(
                *(coalescer.submit(np.full(3, i), 1) for i in range(32))
            )
        assert coalescer.ewma_gap_s < coalescer.ewma_service_s
        assert coalescer.next_wait_s() > 0.0
        assert max(len(batch) for batch, _ in recorder.batches) > 1
        await coalescer.close()

    asyncio.run(main())


@pytest.mark.parametrize("max_wait_ms", [0.0, 0.5, 2.0])
def test_scheduled_windows_never_exceed_the_ceiling(max_wait_ms):
    recorder = Recorder(delay_s=0.001)

    async def main():
        coalescer = RequestCoalescer(
            recorder, max_batch_size=8, max_wait_ms=max_wait_ms
        )
        for wave in range(6):
            await asyncio.gather(
                *(coalescer.submit(np.full(3, i), 1) for i in range(wave))
            )
            await asyncio.sleep(0.002 * (wave % 2))
        assert coalescer.scheduled_waits
        assert all(
            0.0 <= wait <= coalescer.max_wait_s
            for wait in coalescer.scheduled_waits
        )
        await coalescer.close()

    asyncio.run(main())
