"""Property test for the adaptive-wait coalescer.

Under *any* arrival pattern (hypothesis drives the delays, ks and
payloads):

* every submitted request is answered exactly once — no drops, no
  duplicate dispatches;
* each answer is bit-identical to dispatching that query serially;
* every scheduled flush window respects the configured ``max_wait_ms``
  ceiling (the adaptive policy may shrink the window, never grow it).
"""

import asyncio

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import RequestCoalescer

DIMS = 4
MAX_WAIT_MS = 2.0

#: One request: (pre-submit delay in ms, k, query payload).
request_st = st.tuples(
    st.floats(min_value=0.0, max_value=2.0),
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.integers(min_value=0, max_value=3),
        min_size=DIMS,
        max_size=DIMS,
    ),
)

schedule_st = st.lists(request_st, min_size=1, max_size=16)


def reference_row(query: np.ndarray, k: int):
    """The serial per-query answer the dispatch stub implements."""
    ids = np.full(k, int(query.sum()) * 7 + k, dtype=np.int64)
    distances = np.cumsum(np.asarray(query, dtype=float))[:1].repeat(k)
    return ids, distances


@given(schedule=schedule_st)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_adaptive_coalescer_exactly_once_bit_identical(schedule):
    async def main():
        dispatched = []

        async def dispatch(queries, k):
            dispatched.append(len(queries))
            await asyncio.sleep(0)  # yield, like a real executor hop
            rows = [reference_row(query, k) for query in queries]
            return (
                np.stack([ids for ids, _ in rows]),
                np.stack([distances for _, distances in rows]),
            )

        coalescer = RequestCoalescer(
            dispatch,
            max_batch_size=4,
            max_wait_ms=MAX_WAIT_MS,
        )
        tasks = []
        for delay_ms, k, payload in schedule:
            if delay_ms:
                await asyncio.sleep(delay_ms / 1000.0)
            query = np.array(payload, dtype=int)
            tasks.append(asyncio.ensure_future(coalescer.submit(query, k)))
        results = await asyncio.gather(*tasks)
        await coalescer.close()
        return dispatched, results

    dispatched, results = asyncio.run(main())

    # Exactly once: every request produced one answer, and the batches
    # the backend saw add up to the request count (nothing was
    # re-dispatched or dropped).
    assert len(results) == len(schedule)
    assert sum(dispatched) == len(schedule)

    # Bit-identical to the serial path, row by row.
    for (ids, distances), (_, k, payload) in zip(results, schedule):
        expected_ids, expected_distances = reference_row(
            np.array(payload, dtype=int), k
        )
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(distances, expected_distances)


#: Dispatch stub latency (gives the service EWMA a signal).
DISPATCH_DELAY_S = 0.0005
#: Scheduler-noise allowance on wall-clock assertions: generous enough
#: for a loaded CI host, far below the waits a park-forever or
#: timer-re-arming bug would produce.
WALL_SLACK_S = 0.25


@given(schedule=schedule_st)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_adaptive_wait_never_exceeds_ceiling(schedule):
    async def main():
        async def dispatch(queries, k):
            await asyncio.sleep(DISPATCH_DELAY_S)
            n = len(queries)
            return (
                np.zeros((n, k), dtype=np.int64),
                np.zeros((n, k)),
            )

        coalescer = RequestCoalescer(
            dispatch,
            max_batch_size=3,
            max_wait_ms=MAX_WAIT_MS,
        )
        loop = asyncio.get_running_loop()
        observed = []

        async def timed_submit(query, k):
            # Wall-clock park-to-answer time: the ceiling property the
            # policy promises is about what a caller actually waits,
            # not about the policy's own (clamped-by-construction)
            # outputs.
            start = loop.time()
            await coalescer.submit(query, k)
            observed.append(loop.time() - start - DISPATCH_DELAY_S)

        tasks = []
        for delay_ms, k, payload in schedule:
            if delay_ms:
                await asyncio.sleep(delay_ms / 1000.0)
            query = np.array(payload, dtype=int)
            tasks.append(asyncio.ensure_future(timed_submit(query, k)))
            # The policy output must respect the ceiling at every
            # single schedule point, not just on average.
            assert 0.0 <= coalescer.next_wait_s() <= coalescer.max_wait_s
        await asyncio.gather(*tasks)
        await coalescer.close()
        assert coalescer.scheduled_waits  # something was scheduled
        for wait in coalescer.scheduled_waits:
            assert 0.0 <= wait <= coalescer.max_wait_s
        # Every caller was answered within the configured ceiling (plus
        # its batch's service time and scheduler noise): no request was
        # parked past max_wait_ms, re-armed, or forgotten.
        assert len(observed) == len(schedule)
        ceiling = coalescer.max_wait_s + WALL_SLACK_S
        assert all(wait <= ceiling for wait in observed)

    asyncio.run(main())
