"""The one-thread BLAS cap: restores what it found, and never changes
an answer.

:func:`repro.core.blas.one_thread` sets OpenBLAS's thread count to one
for a ``with`` block and restores the previous count when the last
concurrent holder leaves.  Where no loaded library exports the setter,
it does nothing.  Every index search path — flat, routed and tiered —
takes the cap once.  Kernel arithmetic is exact, so they answer the
same with the cap active and without it.
"""

import threading

import numpy as np
import pytest

from repro.core import blas
from repro.index import FerexIndex


class _FakeSetter:
    """A thread-count setter with OpenBLAS's contract: set the count,
    return the previous one.  Records every call."""

    def __init__(self, count):
        self.count = count
        self.calls = []

    def __call__(self, count):
        self.calls.append(count)
        previous, self.count = self.count, count
        return previous


@pytest.fixture
def fake(monkeypatch):
    setter = _FakeSetter(4)
    monkeypatch.setattr(blas, "_resolve", lambda: setter)
    return setter


def test_restores_the_previous_count_on_exit(fake):
    with blas.one_thread():
        assert fake.count == 1
    assert fake.count == 4
    assert fake.calls == [1, 4]


def test_restores_the_previous_count_when_the_body_raises(fake):
    with pytest.raises(RuntimeError, match="boom"):
        with blas.one_thread():
            assert fake.count == 1
            raise RuntimeError("boom")
    assert fake.count == 4


def test_nested_use_sets_and_restores_once(fake):
    with blas.one_thread():
        with blas.one_thread():
            assert fake.count == 1
        assert fake.count == 1
    assert fake.count == 4
    assert fake.calls == [1, 4]


def test_the_last_concurrent_holder_restores(fake):
    first_in, second_in, first_out = (threading.Event() for _ in range(3))
    seen = {}

    def first():
        with blas.one_thread():
            first_in.set()
            second_in.wait(timeout=10)
        first_out.set()

    def second():
        first_in.wait(timeout=10)
        with blas.one_thread():
            second_in.set()
            first_out.wait(timeout=10)
            seen["after_first_left"] = fake.count

    threads = [threading.Thread(target=f) for f in (first, second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert seen == {"after_first_left": 1}
    assert fake.count == 4
    assert fake.calls == [1, 4]


def test_without_a_setter_the_cap_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_resolve", lambda: None)
    with blas.one_thread():
        with blas.one_thread():
            pass
    assert blas._holders == 0


def _count(setter):
    """The loaded OpenBLAS's current thread count (set and put back)."""
    current = setter(1)
    setter(current)
    return current


def test_the_loaded_openblas_gets_its_count_back():
    setter = blas._resolve()
    if setter is None:
        pytest.skip("no loaded library exports " + blas.SYMBOL)
    before = _count(setter)
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            assert _count(setter) == 1
            raise RuntimeError
    assert _count(setter) == before


BACKENDS = [
    ("routed", {"n_clusters": 6, "top_p": 2, "routing_seed": 3}),
    ("tiered", None),
    ("ferex", None),
]


def _index(backend, options, metric="manhattan", bits=2):
    """A 3000-row index with every seventh row removed, and 48
    queries."""
    rng = np.random.default_rng(7)
    index = FerexIndex(
        dims=32,
        metric=metric,
        bits=bits,
        backend=backend,
        backend_options=options,
    )
    index.add(rng.integers(0, 1 << bits, size=(3000, 32)))
    index.remove(np.arange(0, 3000, 7))
    return index, rng.integers(0, 1 << bits, size=(48, 32))


@pytest.mark.parametrize("backend, options", BACKENDS)
def test_every_search_path_takes_the_cap(fake, backend, options):
    index, queries = _index(backend, options)
    index.search(queries, k=10)
    assert fake.calls == [1, 4]
    assert fake.count == 4


ANSWER_CASES = [(*case, "manhattan", 2) for case in BACKENDS] + [
    # 1 bit: the bank kernel's one plane is float32.
    ("ferex", None, "hamming", 1),
]


@pytest.mark.parametrize("backend, options, metric, bits", ANSWER_CASES)
def test_answers_do_not_depend_on_the_cap(
    monkeypatch, backend, options, metric, bits
):
    index, queries = _index(backend, options, metric, bits)
    with blas.one_thread():
        capped = index.search(queries, k=10)
    monkeypatch.setattr(blas, "_resolve", lambda: None)
    free = index.search(queries, k=10)
    assert np.array_equal(capped.ids, free.ids)
    assert np.array_equal(capped.distances, free.distances)
