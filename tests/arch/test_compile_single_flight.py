"""A write generation compiles once, however many threads read it.

Serving runs index searches on several executor threads at once.  The
first search after a write finds every touched bank's compiled kernel
stale; the builds must be single-flight — one ``LUTKernel`` per bank
per write generation, with every other reader of that generation
waiting for it — and every thread must get the same answer.
"""

import threading

import numpy as np

import repro.core.kernel as kernel_module
from repro.arch.crossbar import FeReXArray
from repro.index import FerexIndex

N_THREADS = 8


def _counting(monkeypatch):
    """Record ``(array id, write generation)`` per kernel compile and
    every ``LUTKernel`` construction."""
    compiles, constructions = [], []
    compile_kernel = FeReXArray._compile_kernel

    def counted_compile(self, sl_values, dl_values):
        compiles.append((id(self), self.write_generation))
        return compile_kernel(self, sl_values, dl_values)

    class CountedLUTKernel(kernel_module.LUTKernel):
        def __init__(self, codes, lut):
            constructions.append(codes.shape)
            super().__init__(codes, lut)

    monkeypatch.setattr(FeReXArray, "_compile_kernel", counted_compile)
    monkeypatch.setattr(kernel_module, "LUTKernel", CountedLUTKernel)
    return compiles, constructions


def _search_together(index, queries, k):
    """Every thread searches at once, released by one barrier."""
    barrier = threading.Barrier(N_THREADS)
    results = [None] * N_THREADS

    def reader(slot):
        barrier.wait()
        results[slot] = index.search(queries, k)

    threads = [
        threading.Thread(target=reader, args=(slot,))
        for slot in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def _assert_identical(results, expected):
    for ids, distances in results:
        assert np.array_equal(ids, expected.ids)
        assert distances.dtype == expected.distances.dtype
        assert np.array_equal(distances, expected.distances)


def test_concurrent_readers_compile_each_generation_once(monkeypatch):
    compiles, constructions = _counting(monkeypatch)
    rng = np.random.default_rng(31)
    index = FerexIndex(dims=128, metric="hamming", bits=1, bank_rows=512)
    index.add(rng.integers(0, 2, size=(1300, 128)))
    queries = rng.integers(0, 2, size=(16, 128))
    n_banks = index.backend.n_banks
    assert n_banks == 3

    results = _search_together(index, queries, 5)
    assert len(constructions) == n_banks
    assert sorted(set(compiles)) == sorted(compiles)
    _assert_identical(results, index.search(queries, 5))
    assert len(constructions) == n_banks  # warm: nothing recompiles

    # A write bumps one bank's generation; only that bank recompiles,
    # once, for every concurrent reader.
    index.add(rng.integers(0, 2, size=(40, 128)))
    results = _search_together(index, queries, 5)
    assert len(constructions) == n_banks + 1
    assert len(set(compiles)) == len(compiles) == n_banks + 1
    _assert_identical(results, index.search(queries, 5))
