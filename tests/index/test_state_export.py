"""`export_state`/`from_state`/`content_fingerprint`: the in-memory
snapshot API underneath both `.npz` persistence and the shared-memory
segment layer."""

import numpy as np
import pytest

from repro.index import BankConfig, FerexIndex


def build(rows=30, seed=9, backend="ferex"):
    index = FerexIndex(
        dims=6,
        metric="hamming",
        bits=2,
        backend=backend,
        bank_rows=8,
        seed=seed if backend == "ferex" else None,
    )
    rng = np.random.default_rng(77)
    index.add(rng.integers(0, 4, size=(rows, 6)))
    return index


def queries(n=12):
    rng = np.random.default_rng(78)
    return rng.integers(0, 4, size=(n, 6))


class TestExportState:
    def test_round_trip_is_bit_identical(self):
        index = build()
        index.remove([2, 11])
        meta, arrays = index.export_state()
        rebuilt = FerexIndex.from_state(meta, **arrays)
        q = queries()
        direct = index.search(q, k=4)
        again = rebuilt.search(q, k=4)
        assert np.array_equal(direct.ids, again.ids)
        assert np.array_equal(direct.distances, again.distances)
        assert rebuilt.ntotal == index.ntotal

    def test_arrays_are_canonical_dtypes_without_copy(self):
        index = build()
        _, arrays = index.export_state()
        assert arrays["vectors"].dtype == np.int64
        assert arrays["ids"].dtype == np.int64
        assert arrays["alive"].dtype == bool
        # Dtypes already match the canonical store, so export shares
        # the index's own buffers rather than copying.
        assert arrays["ids"] is index._ids

    def test_content_fingerprint_matches_across_rebuilds(self):
        index = build()
        meta, arrays = index.export_state()
        rebuilt = FerexIndex.from_state(meta, **arrays)
        assert index.content_fingerprint() == rebuilt.content_fingerprint()
        # ... and diverges the moment content diverges.
        rebuilt2 = FerexIndex.from_state(meta, **arrays)
        rebuilt2.add(queries(1))
        assert (
            rebuilt2.content_fingerprint() != index.content_fingerprint()
        )

    def test_content_fingerprint_sees_liveness(self):
        a, b = build(), build()
        assert a.content_fingerprint() == b.content_fingerprint()
        a.remove([5])
        assert a.content_fingerprint() != b.content_fingerprint()

    def test_read_only_state_refuses_mutation(self):
        index = build()
        meta, arrays = index.export_state()
        replica = FerexIndex.from_state(meta, **arrays, read_only=True)
        with pytest.raises(ValueError, match="read-only"):
            replica.add(queries(1))
        q = queries()
        assert np.array_equal(
            replica.search(q, k=2).ids, index.search(q, k=2).ids
        )

    def test_instance_backend_refused(self):
        from repro.index.backends import ExactBackend

        index = FerexIndex(
            dims=6, metric="hamming", bits=2,
            backend=ExactBackend(BankConfig("hamming", 2), 6),
        )
        index.add(queries(4))
        with pytest.raises(ValueError, match="caller-supplied"):
            index.export_state()
        with pytest.raises(ValueError, match="caller-supplied"):
            index.content_fingerprint()

    def test_future_format_version_rejected(self):
        index = build(rows=4)
        meta, arrays = index.export_state()
        meta = dict(meta, format_version=meta["format_version"] + 1)
        with pytest.raises(ValueError, match="newer"):
            FerexIndex.from_state(meta, **arrays)

    def test_save_load_still_bit_identical_via_state(self, tmp_path):
        index = build()
        index.remove([1])
        path = tmp_path / "state.npz"
        index.save(path)
        loaded = FerexIndex.load(path)
        q = queries()
        assert np.array_equal(
            index.search(q, k=3).ids, loaded.search(q, k=3).ids
        )
        assert (
            index.content_fingerprint() == loaded.content_fingerprint()
        )
