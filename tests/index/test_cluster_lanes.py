"""A routed search scores its probed clusters on every idle lane.

:func:`repro.core.blas.fan_out` shares one search's per-cluster
nominations between the caller and idle helper threads; the caller
builds every scorer first and scatters the nominees in cluster order
afterwards.  So the answers must not depend on the lane count: ids and
distances are equal with one lane and with two, through the whole
mutation vocabulary and on the transient-bank fallback.  A job that
fails in a helper fails the search and leaves nothing behind,
concurrent searches answer as serial ones, a forked child searches
with lanes of its own, and searches with one job (tiered, flat) start
no thread.
"""

import contextvars
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import blas
from repro.core.engine import FeReX
from repro.core.kernel import KernelOverflowError
from repro.index import FerexIndex
from repro.index.routing import RoutedBackend

DIMS = 16


def _cpus(monkeypatch, n):
    """Make the process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(
        blas.os, "sched_getaffinity", lambda pid: set(range(n))
    )


def _routed(inner="flat", n_clusters=6, bank_rows=64):
    return FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        bank_rows=bank_rows,
        backend="routed",
        backend_options={
            "n_clusters": n_clusters,
            "top_p": 3,
            "routing_seed": 3,
            "compact_watermark": 0.3,
            "inner": inner,
            "refine_factor": 2,
        },
    )


def _answers(inner, rows):
    """Every answer of one routed index through adds, churn past the
    watermark, ``compact`` and ``reconfigure_routing``."""
    rng = np.random.default_rng(21)
    index = _routed(inner)
    queries = rng.integers(0, 4, size=(24, DIMS))
    answers = []

    def search(k=5):
        found = index.search(queries, k=k)
        answers.append((found.ids, found.distances))

    live = list(index.add(rng.integers(0, 4, size=(rows, DIMS))))
    search()
    index.remove(live[: rows // 2])
    live = live[rows // 2 :]
    assert index.backend.n_auto_compactions > 0
    search()
    for _ in range(3):
        index.remove(live[:16])
        live = live[16:] + list(
            index.add(rng.integers(0, 4, size=(16, DIMS)))
        )
        search(k=7)
    index.compact()
    search()
    index.reconfigure_routing(n_clusters=4, top_p=2)
    search()
    index.reconfigure_routing(top_p=4)
    search(k=3)
    return answers


@pytest.fixture
def lane_jobs(monkeypatch):
    """Counts the nominations each thread ran; the searching thread
    pauses after each of its own, so idle helpers get jobs."""
    ran = {}
    nominate = RoutedBackend._nominate

    def counting(self, *args):
        name = threading.current_thread().name
        ran[name] = ran.get(name, 0) + 1
        result = nominate(self, *args)
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.002)
        return result

    monkeypatch.setattr(RoutedBackend, "_nominate", counting)
    return ran


@pytest.mark.parametrize("inner", ["flat", "tiered"])
@pytest.mark.parametrize("exact", [True, False], ids=["kernel", "banks"])
def test_answers_do_not_depend_on_the_lane_count(
    monkeypatch, lane_jobs, inner, exact
):
    if not exact:

        def overflow(engine):
            raise KernelOverflowError("beyond the exact bound")

        monkeypatch.setattr(FeReX, "value_lut", overflow)
    rows = 1200 if exact else 300
    _cpus(monkeypatch, 1)
    serial = _answers(inner, rows)
    assert set(lane_jobs) == {threading.main_thread().name}
    _cpus(monkeypatch, 2)
    fanned = _answers(inner, rows)
    assert len(lane_jobs) == 2, "no helper lane scored a cluster"
    for (ids, distances), (lane_ids, lane_distances) in zip(serial, fanned):
        assert np.array_equal(ids, lane_ids)
        assert np.array_equal(distances, lane_distances)


def test_a_job_that_fails_in_a_helper_fails_the_search(monkeypatch):
    _cpus(monkeypatch, 2)
    rng = np.random.default_rng(5)
    index = _routed()
    index.add(rng.integers(0, 4, size=(600, DIMS)))
    queries = rng.integers(0, 4, size=(16, DIMS))
    expected = index.search(queries, k=5)
    helper_failed = threading.Event()
    nominate = RoutedBackend._nominate

    def failing(self, *args):
        if threading.current_thread() is threading.main_thread():
            # Hold the first job until a helper has taken another.
            helper_failed.wait(timeout=10)
            return nominate(self, *args)
        helper_failed.set()
        raise RuntimeError("lane failure")

    monkeypatch.setattr(RoutedBackend, "_nominate", failing)
    with pytest.raises(RuntimeError, match="lane failure"):
        index.search(queries, k=5)
    assert helper_failed.is_set()
    assert blas._holders == 0
    monkeypatch.setattr(RoutedBackend, "_nominate", nominate)
    found = index.search(queries, k=5)
    assert np.array_equal(found.ids, expected.ids)
    assert np.array_equal(found.distances, expected.distances)
    assert blas._holders == 0


def test_fan_out_keeps_job_order_and_the_callers_context(monkeypatch):
    _cpus(monkeypatch, 2)
    tag = contextvars.ContextVar("tag", default=None)
    tag.set("caller")
    seen = set()

    def work(job):
        seen.add(tag.get())
        time.sleep(0.001)
        return job * job

    assert blas.fan_out(work, 40) == [job * job for job in range(40)]
    assert seen == {"caller"}


def test_a_busy_helper_is_not_waited_for(monkeypatch):
    """While one fan-out holds the only helper, another runs all its
    jobs on its own thread instead of queueing behind it."""
    _cpus(monkeypatch, 2)
    held, release = threading.Event(), threading.Event()

    def hold(job):
        if threading.current_thread().name.startswith("ferex-lane"):
            held.set()
            release.wait(timeout=30)
        else:
            held.wait(timeout=10)
        return job

    first = []
    holder = threading.Thread(
        target=lambda: first.append(blas.fan_out(hold, 2))
    )
    holder.start()
    try:
        assert held.wait(timeout=10)
        threads = set()

        def work(job):
            threads.add(threading.current_thread())
            return job

        began = time.perf_counter()
        assert blas.fan_out(work, 8) == list(range(8))
        assert time.perf_counter() - began < 10, "it waited for the helper"
        assert threads == {threading.current_thread()}
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert first == [[0, 1]]


def test_every_job_runs_once_under_contention(monkeypatch):
    """Eight callers share one helper, switching threads as often as
    the interpreter allows: each caller's jobs still run exactly once,
    and its results come back in job order."""
    _cpus(monkeypatch, 2)
    n_jobs, callers = 64, 8
    runs = [[0] * n_jobs for _ in range(callers)]
    results = [None] * callers

    def call(caller):
        def work(job):
            runs[caller][job] += 1
            return (caller, job)

        for _ in range(20):
            results[caller] = blas.fan_out(work, n_jobs)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=call, args=(caller,))
            for caller in range(callers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert runs == [[20] * n_jobs] * callers
    assert results == [
        [(caller, job) for job in range(n_jobs)] for caller in range(callers)
    ]


def test_concurrent_searches_answer_as_serial_ones(monkeypatch):
    _cpus(monkeypatch, 2)
    rng = np.random.default_rng(8)
    index = _routed()
    index.add(rng.integers(0, 4, size=(2000, DIMS)))
    batches = [rng.integers(0, 4, size=(12, DIMS)) for _ in range(8)]
    serial = [index.search(batch, k=6) for batch in batches]
    found = [None] * len(batches)
    start = threading.Barrier(len(batches))

    def search(i):
        start.wait(timeout=10)
        found[i] = index.search(batches[i], k=6)

    threads = [
        threading.Thread(target=search, args=(i,))
        for i in range(len(batches))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for expected, got in zip(serial, found):
        assert np.array_equal(expected.ids, got.ids)
        assert np.array_equal(expected.distances, got.distances)
    assert blas._holders == 0


def _search_in_child(index, queries, pipe):
    inherited = blas._pool
    found = index.search(queries, k=5)
    pipe.send((inherited is None, found.ids, found.distances))
    pipe.close()


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
def test_a_forked_child_searches_on_lanes_of_its_own(monkeypatch):
    _cpus(monkeypatch, 2)
    rng = np.random.default_rng(13)
    index = _routed()
    index.add(rng.integers(0, 4, size=(1500, DIMS)))
    queries = rng.integers(0, 4, size=(20, DIMS))
    expected = index.search(queries, k=5)
    assert blas._pool is not None
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(
        target=_search_in_child, args=(index, queries, send)
    )
    child.start()
    send.close()
    try:
        assert receive.poll(60), "the forked child never answered"
        fresh, ids, distances = receive.recv()
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    assert fresh, "the child inherited its parent's helper pool"
    assert np.array_equal(ids, expected.ids)
    assert np.array_equal(distances, expected.distances)


@pytest.mark.parametrize("backend", ["tiered", "ferex"])
def test_one_job_searches_start_no_thread(monkeypatch, backend):
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(blas, "_pool", None)
    rng = np.random.default_rng(2)
    index = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        bank_rows=256,
        backend=backend,
    )
    index.add(rng.integers(0, 4, size=(1000, DIMS)))
    before = threading.active_count()
    index.search(rng.integers(0, 4, size=(8, DIMS)), k=5)
    assert threading.active_count() == before
    assert blas._pool is None


def test_a_shortlist_fans_out_under_the_one_thread_cap(monkeypatch):
    _cpus(monkeypatch, 2)
    calls = []

    def setter(count):
        calls.append(count)
        return 4 if count == 1 else 1

    monkeypatch.setattr(blas, "_resolve", lambda: setter)
    rng = np.random.default_rng(4)
    index = _routed()
    index.add(rng.integers(0, 4, size=(800, DIMS)))
    index.backend.shortlist(rng.integers(0, 4, size=(6, DIMS)), 12)
    assert calls == [1, 4]
