"""One BLAS thread for an index search, and lanes for its independent
jobs.

A search multiplies small matrices: a routed cluster's kernel, a bank's
plane.  OpenBLAS hands each product to a helper thread that then
spin-waits for the next one, so on a small box most of a query's CPU is
that spin, for little wall-clock gain.  Every index search — flat
(:meth:`repro.index.backends.FerexBackend.search`), routed and tiered
— and every served read run under :func:`one_thread`, which caps
OpenBLAS at one thread for the duration of a ``with`` block (or of a
call it decorates), through ``openblas_set_num_threads_local``
(OpenBLAS >= 0.3.27; numpy's bundled build exports it), found among
the process's loaded libraries with ``ctypes``.  Where no loaded
library exports it, the cap does nothing.

OpenBLAS's pthreads build — numpy's wheels — keeps one thread count
per process despite the function's name: while any caller holds the
cap, every product in the process runs on one thread.  The cap is
therefore counted across threads: the first holder saves the count and
sets one, the last one out restores it, so nested and concurrent use
always leave the caller's setting behind.  Work outside a search —
routing's centroid training, a caller's own products — keeps OpenBLAS's
own threading.

Kernel arithmetic is exact (:mod:`repro.core.kernel`), so scores do not
depend on the thread count.

Lanes
-----
A routed search scores each probed cluster independently, the way
FeReX searches all its arrays at once and only their winners meet.
:func:`fan_out` runs such independent jobs on the caller plus idle
helper threads — its *lanes*, one per CPU the process may run on, at
most :data:`MAX_LANES` — and returns their results in job order.  The
caller and its helpers pull job indices from one shared cursor, so the
caller never waits for a helper to start.  A helper is offered only if
it is idle: the helpers hold ``lanes - 1`` permits, taken without
blocking, and the caller cancels any helper that has not started by
the time it has drained the cursor.  A search therefore never queues
behind another search's jobs; under concurrent callers it degrades to
the serial loop.  Helpers run in a copy of the caller's
``contextvars`` context, a job that raises re-raises in the caller
after every started helper has stopped, and the helper pool is built
at the first real fan-out and dropped in a forked child.  One CPU, or
fewer than two jobs, starts no thread at all.  The jobs' products run
under the caller's :func:`one_thread` cap, which is process-wide.
Flat search keeps its bank loop on one lane: it streams every bank's
planes from memory, and two lanes measured no faster, for more CPU.
"""

from __future__ import annotations

import contextvars
import ctypes
import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, TypeVar

SYMBOL = "openblas_set_num_threads_local"

#: Most lanes (the caller plus helper threads) one :func:`fan_out`
#: uses.  Jobs hold the GIL between their numpy calls, which bounds
#: the gain from more threads; 2 is the widest count measured (a
#: 2-vCPU Xeon VM: +39 % routed queries/s), so wider boxes stay at it
#: until a wider measurement says otherwise.
MAX_LANES = 2

_T = TypeVar("_T")

_lock = threading.Lock()
_holders = 0
_saved = 0

#: ``(lanes, helper executor, idle-helper permits)``, built at the
#: first fan-out that needs helpers; see :func:`_helpers`.
_pool: Optional[tuple] = None
_pool_lock = threading.Lock()


@lru_cache(maxsize=None)
def _resolve() -> Optional[Callable[[int], int]]:
    """The first loaded library's :data:`SYMBOL` (takes the new thread
    count, returns the previous one), or ``None``.  Loaded libraries
    are read from ``/proc/self/maps``; elsewhere nothing resolves."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                line.split(maxsplit=5)[5].strip()
                for line in maps
                if "blas" in line.lower()
            }
        for path in sorted(paths):
            setter = getattr(ctypes.CDLL(path), SYMBOL, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
                return setter
    except OSError:
        pass
    return None


@contextmanager
def one_thread() -> Iterator[None]:
    """Run the block with OpenBLAS capped at one thread, restoring the
    previous count when the last concurrent holder leaves — also when
    the block raises."""
    global _holders, _saved
    setter = _resolve()
    if setter is None:
        yield
        return
    with _lock:
        if not _holders:
            _saved = setter(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if not _holders:
                setter(_saved)


def lanes() -> int:
    """Threads a :func:`fan_out` may use: the CPUs this process may run
    on, at most :data:`MAX_LANES`."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_LANES, cpus))


def _helpers(n_lanes: int) -> tuple:
    """The helper pool for ``n_lanes`` lanes, built on first use (and
    rebuilt when the lane count changes; a fan-out still holding the
    old pool finishes on it)."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != n_lanes:
            _pool = (
                n_lanes,
                ThreadPoolExecutor(n_lanes - 1, "ferex-lane"),
                threading.BoundedSemaphore(n_lanes - 1),
            )
        return _pool


def _forget_helpers() -> None:
    """A forked child has none of its parent's helper threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def _lane(idle: threading.BoundedSemaphore, context, drain) -> None:
    """One helper's turn: drain jobs in the caller's context, then free
    its permit."""
    try:
        context.run(drain)
    finally:
        idle.release()


def fan_out(work: Callable[[int], _T], n_jobs: int) -> List[_T]:
    """``[work(0), ..., work(n_jobs - 1)]``, the jobs shared between the
    caller and its idle helper threads (see the module docstring).

    Jobs run in no fixed order and must be independent; the result
    list is in job order.  If a job raises, no lane starts another one,
    and the error re-raises here once every started helper has
    returned."""
    n_lanes = lanes() if n_jobs > 1 else 1
    if n_lanes < 2:
        return [work(job) for job in range(n_jobs)]
    _, executor, idle = _helpers(n_lanes)
    results: list = [None] * n_jobs
    cursor = itertools.count()
    failed = threading.Event()

    def drain() -> None:
        try:
            for job in cursor:
                if job >= n_jobs or failed.is_set():
                    return
                results[job] = work(job)
        except BaseException:
            failed.set()
            raise

    futures = []
    for _ in range(min(n_lanes, n_jobs) - 1):
        if not idle.acquire(blocking=False):
            break
        futures.append(
            executor.submit(_lane, idle, contextvars.copy_context(), drain)
        )
    try:
        drain()
    finally:
        started = []
        for future in futures:
            if future.cancel():
                idle.release()
            else:
                started.append(future)
        wait(started)
    for future in started:
        future.result()
    return results
