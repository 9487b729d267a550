"""Row-level writes: append-only row stores and appended cluster kernels.

Every write-side array of the index layer grows through one
:class:`repro.index.backends.RowStore`, and a routed cluster's compiled
kernel grows through :meth:`repro.core.kernel.LUTKernel.append`.  Growth
must be invisible: many small writes leave the same state, the same
fingerprint and the same answers as one big write; a prefix handed out
earlier never changes under a later append; and an appended kernel
scores exactly like a freshly compiled one.
"""

import numpy as np
import pytest

from repro.core.config import quantize_codes
from repro.core.kernel import LUTKernel, headroom
from repro.index import FerexIndex
from repro.index.backends import RowStore

DIMS = 6


def _index(backend, **options):
    return FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        backend=backend,
        bank_rows=8,
        backend_options=options or None,
    )


def _data(rows, seed=3):
    return np.random.default_rng(seed).integers(0, 4, size=(rows, DIMS))


def _snapshot(index):
    _, arrays = index.export_state()
    return {name: array.copy() for name, array in arrays.items()}


class TestRowStore:
    def test_prefixes_survive_appends_and_regrowths(self):
        store = RowStore(np.arange(4), np.zeros((4, 2)))
        early = store.columns
        store.append(np.arange(4, 5), np.ones((1, 2)))
        assert len(store._buffers[0]) == headroom(5)
        middle = store.columns
        store.append(np.arange(5, 20), np.ones((15, 2)))
        assert np.array_equal(early[0], np.arange(4))
        assert np.array_equal(early[1], np.zeros((4, 2)))
        assert np.array_equal(middle[0], np.arange(5))
        assert np.array_equal(store.columns[0], np.arange(20))
        assert store.columns[1].shape == (20, 2)

    def test_a_first_write_fits_exactly(self):
        store = RowStore(np.empty(0, dtype=np.int64), np.empty((0, 3)))
        store.append(np.arange(10), np.ones((10, 3)))
        assert [len(buffer) for buffer in store._buffers] == [10, 10]
        store.append(np.arange(10, 12), np.ones((2, 3)))
        assert [len(buffer) for buffer in store._buffers] == [13, 13]

    def test_adopts_its_initial_arrays_uncopied(self):
        ids = np.arange(3)
        ids.flags.writeable = False
        store = RowStore(ids)
        assert store.columns[0] is ids
        store.append(np.arange(3, 5))  # regrows into a private buffer
        assert np.array_equal(store.columns[0], np.arange(5))


@pytest.mark.parametrize(
    "backend, options",
    [
        ("ferex", {}),
        ("exact", {}),
        # Fixed centroids: routing does not depend on the first batch.
        ("routed", {"centroids": _data(3, seed=5).tolist(), "top_p": 2}),
    ],
)
def test_many_small_adds_equal_one_add(backend, options):
    data = _data(70)
    once = _index(backend, **options)
    once.add(data)
    grown = _index(backend, **options)
    for lo in range(0, len(data), 3):
        grown.add(data[lo : lo + 3])
    for name, array in once.export_state()[1].items():
        assert np.array_equal(grown.export_state()[1][name], array)
    assert grown.content_fingerprint() == once.content_fingerprint()
    queries = _data(9, seed=4)
    a, b = once.search(queries, k=5), grown.search(queries, k=5)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.distances, b.distances)


@pytest.mark.parametrize("backend", ["ferex", "routed"])
def test_exported_arrays_keep_their_rows_under_later_appends(backend):
    index = _index(backend)
    index.add(_data(40))
    index.remove([1, 7])
    meta, exported = index.export_state()
    expected = _snapshot(index)
    fingerprint = index.content_fingerprint()
    added = index.add(_data(2, seed=6))  # fits the headroom
    index.remove(added[:1])  # a tombstone past the exported prefix
    for seed in range(7, 12):
        index.add(_data(9, seed=seed))  # regrows
    for name, array in expected.items():
        assert np.array_equal(exported[name], array)
    rebuilt = FerexIndex.from_state(meta, **exported)
    assert rebuilt.content_fingerprint() == fingerprint


def test_a_read_only_replica_still_refuses_writes():
    index = _index("ferex")
    index.add(_data(20))
    meta, arrays = index.export_state()
    replica = FerexIndex.from_state(meta, **arrays, read_only=True)
    assert replica._vectors is arrays["vectors"]
    with pytest.raises(ValueError, match="read-only"):
        replica.add(_data(1))
    with pytest.raises(ValueError, match="read-only"):
        replica.remove([0])
    assert replica.ntotal == 20


@pytest.mark.parametrize("inner", ["flat", "tiered"])
def test_appended_cluster_kernels_score_like_fresh_ones(inner):
    rng = np.random.default_rng(8)
    index = _index(
        "routed", n_clusters=3, top_p=2, inner=inner, compact_watermark=1.0
    )
    ids = list(index.add(_data(60)))
    queries = rng.integers(0, 4, size=(11, DIMS))
    index.search(queries, k=4)  # compiles every probed cluster
    backend = index.backend
    kernels = [cluster.kernel for cluster in backend._clusters]
    first_rows = [0 if k is None else k.rows for k in kernels]
    for step in range(12):
        index.remove([ids.pop(int(rng.integers(len(ids))))])
        ids.extend(index.add(rng.integers(0, 4, size=(step % 4, DIMS))))
        if step % 3 == 0:
            index.search(queries, k=4)
    assert [cluster.kernel for cluster in backend._clusters] == kernels
    assert any(
        kernel is not None and kernel.rows > rows
        for kernel, rows in zip(kernels, first_rows)
    )
    lut = backend._value_lut()[0]
    sub_bits = backend._sub_config().bits
    value_index = backend._sub_codes(queries)
    for cluster in backend._clusters:
        if cluster.kernel is None:
            continue
        assert cluster.kernel.rows == cluster.written
        fresh = LUTKernel(
            quantize_codes(
                backend._vectors[cluster.globals_], index.bits, sub_bits
            ),
            lut,
        )
        assert np.array_equal(
            cluster.kernel.scores(value_index), fresh.scores(value_index)
        )
        assert np.array_equal(
            cluster.kernel.scores_gather(value_index),
            fresh.scores_gather(value_index),
        )
