"""save/load round trips: configuration, ids, tombstones, bit-identity."""

import numpy as np
import pytest

from repro.index import FerexIndex


@pytest.fixture
def stored(rng):
    return rng.integers(0, 4, size=(40, 8))


@pytest.fixture
def queries(rng):
    return rng.integers(0, 4, size=(12, 8))


def roundtrip(index, tmp_path):
    path = tmp_path / "index.npz"
    index.save(path)
    return FerexIndex.load(path)


class TestRoundTrip:
    def test_ferex_backend_bit_identical(self, stored, queries, tmp_path):
        """The headline guarantee: a reloaded index reprograms through
        the same deterministic write path (same positions, same
        variation seeds) and returns bit-identical results."""
        index = FerexIndex(
            dims=8, metric="hamming", bits=2, bank_rows=16, seed=11
        )
        index.add(stored)
        before = index.search(queries, k=4)
        loaded = roundtrip(index, tmp_path)
        after = loaded.search(queries, k=4)
        assert np.array_equal(before.ids, after.ids)
        assert np.array_equal(before.distances, after.distances)

    def test_tombstones_survive(self, stored, queries, tmp_path):
        index = FerexIndex(dims=8, metric="hamming", bits=2, bank_rows=16)
        index.add(stored)
        index.remove([3, 19, 33])
        before = index.search(queries, k=3)
        loaded = roundtrip(index, tmp_path)
        assert loaded.ntotal == 37
        after = loaded.search(queries, k=3)
        assert np.array_equal(before.ids, after.ids)
        assert np.array_equal(before.distances, after.distances)
        with pytest.raises(KeyError):
            loaded.remove([3])  # already dead

    def test_configuration_restored(self, stored, tmp_path):
        index = FerexIndex(
            dims=8,
            metric="manhattan",
            bits=2,
            backend="exact",
            bank_rows=7,
            encoder="auto",
            seed=3,
        )
        index.add(stored, ids=np.arange(100, 140))
        loaded = roundtrip(index, tmp_path)
        assert loaded.dims == 8
        assert loaded.metric == "manhattan"
        assert loaded.bits == 2
        assert loaded.bank_rows == 7
        assert loaded.seed == 3
        assert loaded.backend.name == "exact"

    def test_id_counter_survives(self, stored, tmp_path):
        index = FerexIndex(dims=8, bank_rows=16)
        index.add(stored[:5], ids=[10, 11, 12, 13, 14])
        loaded = roundtrip(index, tmp_path)
        assert loaded.add(stored[5:6]).tolist() == [15]

    def test_empty_index_roundtrip(self, tmp_path):
        index = FerexIndex(dims=8, bank_rows=16)
        loaded = roundtrip(index, tmp_path)
        assert loaded.ntotal == 0 and loaded.n_banks == 0

    def test_save_load_symmetric_without_npz_suffix(
        self, stored, tmp_path
    ):
        """np.savez appends .npz to a bare path; load mirrors that, so
        the same path string round-trips."""
        index = FerexIndex(dims=8, bank_rows=16)
        index.add(stored)
        bare = tmp_path / "myindex"
        index.save(bare)
        assert (tmp_path / "myindex.npz").exists()
        loaded = FerexIndex.load(bare)
        assert loaded.ntotal == 40

    def test_adds_continue_after_load(self, stored, queries, tmp_path):
        """A reloaded index is a live index: further adds land in the
        same positions they would have in the original."""
        index = FerexIndex(dims=8, bank_rows=16, seed=2)
        index.add(stored[:30])
        loaded = roundtrip(index, tmp_path)
        index.add(stored[30:])
        loaded.add(stored[30:])
        a = index.search(queries, k=3)
        b = loaded.search(queries, k=3)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)

    def test_instance_backend_refuses_save(self, stored, tmp_path):
        """Caller-supplied backend instances carry configuration the
        index-level metadata cannot describe — persisting them would
        silently reload a differently-configured index."""
        from repro.index import BankConfig, ExactBackend, FerexBackend

        class Custom(ExactBackend):
            name = "custom"

        for backend in (
            Custom(BankConfig("hamming", 2), 8),
            # even a registered kind: this instance's bank geometry
            # diverges from the index-level bank_rows
            FerexBackend(BankConfig("hamming", 2), 8, bank_rows=4),
        ):
            index = FerexIndex(dims=8, backend=backend)
            index.add(stored)
            with pytest.raises(ValueError, match="caller-supplied"):
                index.save(tmp_path / "index.npz")
