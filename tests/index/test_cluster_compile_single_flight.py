"""A routed cluster compiles once per write generation.

Serving runs index searches on several executor threads at once.  A
routed search scores every probed cluster with the cluster's own
kernel, compiled from its codes on first use: the builds must be
single-flight — one ``LUTKernel`` per cluster, every other reader
waiting for it — and a write must append its rows to the kernels of
the clusters it touched, recompiling none.  No cluster bank compiles a
kernel of its own.
"""

import threading

import numpy as np

import repro.index.routing as routing_module
from repro.arch.crossbar import FeReXArray
from repro.index import FerexIndex

N_THREADS = 8
N_CLUSTERS = 4


def _counting(monkeypatch):
    """Record every cluster ``LUTKernel`` construction (its codes'
    shape) and every crossbar kernel compile."""
    constructions, bank_compiles = [], []

    class CountedLUTKernel(routing_module.LUTKernel):
        def __init__(self, codes, lut, distance=None):
            constructions.append(codes.shape)
            super().__init__(codes, lut, distance)

    def refused(self, sl_values, dl_values):
        bank_compiles.append(id(self))

    monkeypatch.setattr(routing_module, "LUTKernel", CountedLUTKernel)
    monkeypatch.setattr(FeReXArray, "_compile_kernel", refused)
    return constructions, bank_compiles


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
        assert np.array_equal(distances, expected.distances)


def _index(rng):
    index = FerexIndex(
        dims=24,
        metric="manhattan",
        bits=2,
        bank_rows=64,
        backend="routed",
        backend_options={
            "n_clusters": N_CLUSTERS,
            "top_p": N_CLUSTERS,
            "compact_watermark": 1.0,
        },
    )
    index.add(rng.integers(0, 4, size=(300, 24)))
    return index


def test_concurrent_readers_compile_each_cluster_once(monkeypatch):
    rng = np.random.default_rng(35)
    index = _index(rng)
    constructions, bank_compiles = _counting(monkeypatch)
    queries = rng.integers(0, 4, size=(16, 24))
    clusters = index.backend._clusters
    assert len(clusters) == N_CLUSTERS

    results = _search_together(index, queries, 5)
    assert sorted(constructions) == sorted(
        (cluster.written, 24) for cluster in clusters
    )
    _assert_identical(results, index.search(queries, 5))
    assert len(constructions) == N_CLUSTERS  # warm: nothing recompiles
    assert bank_compiles == []


def test_a_write_appends_to_only_the_kernels_it_touched(monkeypatch):
    rng = np.random.default_rng(36)
    index = _index(rng)
    queries = rng.integers(0, 4, size=(16, 24))
    index.search(queries, 5)
    constructions, bank_compiles = _counting(monkeypatch)
    clusters = index.backend._clusters
    kernels = [cluster.kernel for cluster in clusters]
    assert all(kernel is not None for kernel in kernels)

    # A tombstone only changes the alive mask: every kernel stays.
    index.remove([3, 100, 250])
    results = _search_together(index, queries, 5)
    _assert_identical(results, index.search(queries, 5))
    assert constructions == []
    assert [cluster.kernel for cluster in clusters] == kernels

    written = [cluster.written for cluster in clusters]
    index.add(rng.integers(0, 4, size=(2, 24)))  # two clusters at most
    touched = [
        ci
        for ci, cluster in enumerate(clusters)
        if cluster.written != written[ci]
    ]
    assert 1 <= len(touched) < N_CLUSTERS
    assert [cluster.kernel for cluster in clusters] == kernels
    assert [kernel.rows for kernel in kernels] == [
        cluster.written for cluster in clusters
    ]
    results = _search_together(index, queries, 5)
    assert constructions == []
    assert [cluster.kernel for cluster in clusters] == kernels
    expected = index.search(queries, 5)
    _assert_identical(results, expected)
    assert bank_compiles == []

    # The appended kernels answer exactly like freshly compiled ones.
    for cluster in clusters:
        cluster.kernel = None
    _assert_identical([index.search(queries, 5)], expected)
    assert len(constructions) == N_CLUSTERS
