"""Async request coalescing: many concurrent searches, few dispatches.

FeReX earns its throughput by amortising one array evaluation over many
queries (the ~50x batch-over-serial win measured in
``benchmarks/bench_batch_throughput.py``).  A serving process only sees
that win if concurrent single-query callers are *coalesced* into
micro-batches before they reach the index — which is exactly what
:class:`RequestCoalescer` does:

* a submitted request parks in the pending queue;
* the queue flushes when it reaches ``max_batch_size`` **or** when its
  adaptive window (below, never longer than ``max_wait_ms``) closes,
  whichever is first;
* a flush groups pending requests by ``k`` (the index's batch entry
  point takes one ``k`` per call) and dispatches each group through the
  supplied async ``dispatch`` callable in arrival order;
* each caller's future resolves with its own ``(ids, distances)`` row.

Because the index's batch path is bit-identical to its serial path by
construction, coalescing changes *when* a query is evaluated but never
*what* it returns.

Cancellation discipline: a caller that abandons its request (e.g. via
``asyncio.wait_for``) before the flush is silently dropped from the
batch; one cancelled after dispatch simply never receives the result.
Other requests in the same micro-batch are unaffected either way.

Adaptive wait
-------------
A fixed ``max_wait_ms`` taxes sparse traffic: a lone caller always eats
the full window even though nobody will ever join its batch.  The
coalescer therefore sizes each window from the EWMAs of two signals it
observes anyway:

* the **inter-arrival gap** between ``submit`` calls, and
* the **dispatch service time** of recent batches.

Waiting only pays when another request is expected before the current
one would have been served solo — i.e. when the arrival gap undercuts
the service time.  The scheduled window is therefore::

    wait = 0                                       if ewma_gap >= ewma_service
    wait = min(max_wait_ms, WAIT_GAIN * ewma_gap)  otherwise

always clamped to ``[0, max_wait_ms]`` — the configured ceiling is a
hard upper bound no arrival pattern can push past.  Under concurrency-1
traffic the gap (which *includes* any wait we add, so the loop is
self-stabilising) sits above the service time and the window collapses
to zero: a singleton request arriving to an empty queue then bypasses
the timer entirely and dispatches inline, at near-direct-search
latency.  Under a 64-client burst the gaps are microseconds, the window
opens, and batches keep filling exactly as with a fixed wait.  Until
the first gap is observed the window is the full ``max_wait_ms``.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Awaitable, Callable, List, Optional, Tuple

import numpy as np

#: Async dispatch: (queries (n, dims), k) -> (ids (n, k), distances).
DispatchFn = Callable[
    [np.ndarray, int], Awaitable[Tuple[np.ndarray, np.ndarray]]
]


class DeadlineExceededError(TimeoutError):
    """A request's deadline expired while it was parked in the pending
    queue: it was rejected at flush time instead of being dispatched.

    The wire front-end maps this to ``503`` + ``Retry-After`` — under
    overload, queue time (not service time) is what grows without
    bound, so rejecting stale requests before they reach the array is
    what keeps served p99 bounded.
    """


class _Pending:
    """One parked request: query row, k, deadline, caller's future."""

    __slots__ = ("query", "k", "future", "deadline")

    def __init__(
        self,
        query: np.ndarray,
        k: int,
        future: asyncio.Future,
        deadline: Optional[float] = None,
    ):
        self.query = query
        self.k = k
        self.future = future
        #: Absolute event-loop time after which the request must not be
        #: dispatched (None = no deadline).
        self.deadline = deadline


class RequestCoalescer:
    """Collects concurrent ``submit`` calls into micro-batches.

    Parameters
    ----------
    dispatch:
        Async callable evaluating one micro-batch.  Exceptions it
        raises propagate to every caller in that batch.
    max_batch_size:
        Flush immediately once this many requests are pending.
    max_wait_ms:
        Ceiling of the adaptive flush window: a request is dispatched
        at latest this long after the oldest pending request arrived.
        ``0`` flushes on the next event-loop tick (pure opportunistic
        batching, no added latency).
    on_batch:
        Optional observer called with each successfully served batch
        size (the server wires :meth:`ServerStats.record_batch` here).
    inline_dispatch:
        Optional dispatch variant used *only* for the sparse-traffic
        singleton fast path (a request confirmed alone).  The server
        passes a loop-blocking direct search here — acceptable exactly
        because nothing else is in flight — while timer- and
        size-triggered batches (including a lone-k group inside a
        concurrent burst) keep the off-loop ``dispatch``.  Defaults to
        ``dispatch``.
    """

    #: EWMA smoothing factor for both signals (higher = faster
    #: adaptation, noisier estimate).
    EWMA_ALPHA = 0.25
    #: Multiple of the arrival-gap EWMA used as the window when waiting
    #: is worthwhile.
    WAIT_GAIN = 8.0

    def __init__(
        self,
        dispatch: DispatchFn,
        max_batch_size: int = 64,
        max_wait_ms: float = 2.0,
        on_batch: Optional[Callable[[int], None]] = None,
        inline_dispatch: Optional[DispatchFn] = None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self._dispatch = dispatch
        self._inline_dispatch = inline_dispatch or dispatch
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self._on_batch = on_batch
        #: EWMA of submit inter-arrival gaps (seconds; None = no data).
        self._ewma_gap: Optional[float] = None
        #: EWMA of batch dispatch durations (seconds; None = no data).
        self._ewma_service: Optional[float] = None
        self._last_arrival: Optional[float] = None
        #: Recent scheduled windows (seconds) — every value is in
        #: ``[0, max_wait_s]`` by construction; tests read this to
        #: audit the window policy.
        self.scheduled_waits: deque = deque(maxlen=256)
        self._pending: List[_Pending] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._inflight: set = set()
        #: Singleton fast-path batches awaited inline (no task object
        #: to gather), counted so close() can drain them too.
        self._inline_inflight = 0
        self._inline_drained = asyncio.Event()
        self._inline_drained.set()
        #: Requests rejected at flush time because their deadline had
        #: already expired while parked (never dispatched).
        self.n_deadline_drops = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def n_pending(self) -> int:
        """Requests parked and not yet dispatched."""
        return len(self._pending)

    @property
    def ewma_service_s(self) -> Optional[float]:
        """EWMA of batch dispatch durations in seconds (``None`` until
        the first batch is served) — with the queue depth, how long
        the parked backlog would take to drain."""
        return self._ewma_service

    @property
    def ewma_gap_s(self) -> Optional[float]:
        """EWMA of submit inter-arrival gaps in seconds (``None``
        before the second submit)."""
        return self._ewma_gap

    def _observe_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            # Cap the sample: beyond "no batch-mate is coming" the gap
            # magnitude is meaningless, and one long idle period must
            # not dominate the EWMA for many requests afterwards.
            gap = min(now - self._last_arrival, 1.0)
            if self._ewma_gap is None:
                self._ewma_gap = gap
            else:
                alpha = self.EWMA_ALPHA
                self._ewma_gap = alpha * gap + (1 - alpha) * self._ewma_gap
        self._last_arrival = now

    def _observe_service(self, duration: float) -> None:
        if self._ewma_service is None:
            self._ewma_service = duration
        else:
            alpha = self.EWMA_ALPHA
            self._ewma_service = (
                alpha * duration + (1 - alpha) * self._ewma_service
            )

    def next_wait_s(self) -> float:
        """The flush window the next empty-queue arrival would get,
        always within ``[0, max_wait_s]``."""
        if self._ewma_gap is None:
            return self.max_wait_s
        # Until a batch has been served, assume waiting may pay (the
        # ceiling itself is the most conservative service estimate).
        service = (
            self._ewma_service
            if self._ewma_service is not None
            else self.max_wait_s
        )
        if self._ewma_gap >= service:
            # Arrivals are slower than serving solo: batch-mates will
            # not materialise, so waiting only adds latency.
            return 0.0
        return min(self.max_wait_s, self.WAIT_GAIN * self._ewma_gap)

    async def submit(
        self,
        query: np.ndarray,
        k: int,
        deadline: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Park one query until its micro-batch flushes; returns this
        query's ``(ids, distances)`` row.

        ``deadline`` is an absolute event-loop time
        (``loop.time()``-based).  A request whose deadline has already
        passed raises :class:`DeadlineExceededError` immediately; one
        whose deadline expires *while parked* is rejected at flush time
        instead of being dispatched (stale work never reaches the
        index).  A deadline does not abort a dispatch already in
        flight — the answer is nearly done by then, and returning it
        costs nothing extra.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        loop = asyncio.get_running_loop()
        now = loop.time()
        if deadline is not None and now >= deadline:
            raise DeadlineExceededError(
                "deadline expired before the request could be queued"
            )
        self._observe_arrival(now)
        future = loop.create_future()
        pending = _Pending(query, k, future, deadline)
        if not self._pending and self.next_wait_s() == 0.0:
            # Sparse-traffic fast path: nobody is parked and the policy
            # says nobody is coming.  Park and yield exactly once —
            # submits already sitting in the event loop's ready queue
            # (a concurrent burst) land in the pending list during the
            # yield and batch as usual; a request still alone
            # afterwards dispatches inline (no timer, no task hop) at
            # near-direct-search latency.  The full batch machinery
            # runs either way, so error/observer semantics are
            # identical to a size-1 flush.
            self._pending.append(pending)
            try:
                await asyncio.sleep(0)
            except asyncio.CancelledError:
                # Cancelled mid-park: the task never reaches the await
                # on its future, so the done-future filter can't drop
                # it — remove the ghost entry explicitly or it would be
                # dispatched as wasted work in the next real batch.
                if pending in self._pending:
                    self._pending.remove(pending)
                raise
            if self._pending == [pending]:
                self._pending = []
                self.scheduled_waits.append(0.0)
                self._inline_inflight += 1
                self._inline_drained.clear()
                try:
                    await self._run_batch(
                        [pending], k, dispatch=self._inline_dispatch
                    )
                finally:
                    self._inline_inflight -= 1
                    if self._inline_inflight == 0:
                        self._inline_drained.set()
            return await future
        self._pending.append(pending)
        if len(self._pending) >= self.max_batch_size:
            self._flush()
        elif self._flush_handle is None:
            wait = self.next_wait_s()
            self.scheduled_waits.append(wait)
            self._flush_handle = loop.call_later(wait, self._flush)
        return await future

    async def close(self) -> None:
        """Flush any parked requests and wait out in-flight batches;
        subsequent submits raise."""
        self._closed = True
        while self._pending:
            self._flush()
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        while self._inflight:
            await asyncio.gather(*tuple(self._inflight))
        # Singleton fast-path dispatches are awaited by their callers,
        # not tracked as tasks — wait for those to finish draining too.
        await self._inline_drained.wait()

    # ------------------------------------------------------------------
    def _flush(self) -> None:
        """Dispatch every pending request now.

        ``submit`` flushes synchronously the moment the queue reaches
        ``max_batch_size`` (and flushing itself never awaits), so the
        queue can never exceed one batch — the whole pending list *is*
        the micro-batch.
        """
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        # Callers that cancelled while parked drop out of the batch.
        batch = [p for p in batch if not p.future.done()]
        # Requests whose deadline expired while parked are rejected
        # here, before any dispatch work is spent on them.
        now = asyncio.get_running_loop().time()
        expired = [
            p
            for p in batch
            if p.deadline is not None and now >= p.deadline
        ]
        if expired:
            batch = [p for p in batch if p not in expired]
            self.n_deadline_drops += len(expired)
            for pending in expired:
                pending.future.set_exception(
                    DeadlineExceededError(
                        "deadline expired while queued for dispatch"
                    )
                )
        if not batch:
            return
        # One index call per distinct k, arrival order preserved.
        by_k: dict = {}
        for pending in batch:
            by_k.setdefault(pending.k, []).append(pending)
        loop = asyncio.get_running_loop()
        for k, group in by_k.items():
            # max_batch_size is a hard bound on dispatched batches, not
            # just a flush trigger: a request parked outside the normal
            # size check (the sparse fast path's one-tick yield) must
            # not let a sweep exceed the cap.
            for start in range(0, len(group), self.max_batch_size):
                chunk = group[start : start + self.max_batch_size]
                task = loop.create_task(self._run_batch(chunk, k))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)

    async def _run_batch(
        self,
        group: List[_Pending],
        k: int,
        dispatch: Optional[DispatchFn] = None,
    ) -> None:
        # Everything — batch assembly, dispatch, and handing out the
        # rows — stays inside the try: an exception that escaped before
        # every future resolves (a ragged batch, a dispatch that
        # returned too few rows) would leave callers awaiting forever.
        loop = asyncio.get_running_loop()
        started = loop.time()
        try:
            if len(group) == 1:
                # Zero-copy lift for the singleton fast path.
                queries = np.asarray(group[0].query)[None]
            else:
                queries = np.stack([pending.query for pending in group])
            ids, distances = await (dispatch or self._dispatch)(queries, k)
            self._observe_service(loop.time() - started)
            if len(ids) < len(group) or len(distances) < len(group):
                raise ValueError(
                    f"dispatch returned {len(ids)} rows for a batch "
                    f"of {len(group)}"
                )
            # Observed only on success: the stats histogram counts
            # batches that were actually served.
            if self._on_batch is not None:
                self._on_batch(len(group))
            for row, pending in enumerate(group):
                if not pending.future.done():
                    pending.future.set_result((ids[row], distances[row]))
        except Exception as exc:  # propagate to every unresolved caller
            for pending in group:
                if not pending.future.done():
                    pending.future.set_exception(exc)
