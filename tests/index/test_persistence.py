"""save/load round trips: configuration, ids, tombstones, bit-identity."""

import json

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


def v2_meta(**changes):
    """A format-2 meta record as written by ``save`` for an 8-dim
    Hamming 2-bit ferex index: ``bank_configs`` is ``None`` for a
    homogeneous fleet."""
    meta = {
        "format_version": 2,
        "dims": 8,
        "metric": "hamming",
        "bits": 2,
        "backend": "ferex",
        "bank_rows": 16,
        "bank_configs": None,
        "backend_options": {},
        "encoder": "auto",
        "seed": 11,
        "next_id": 40,
    }
    meta.update(changes)
    return meta


def save_v2(path, meta, vectors, ids, alive):
    """Write an ``.npz`` in the version-2 layout by hand."""
    np.savez_compressed(
        path,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        vectors=vectors,
        ids=ids,
        alive=alive,
    )


class TestFormatVersion2:
    def build(self):
        index = FerexIndex(
            dims=8, metric="hamming", bits=2, bank_rows=16, seed=11
        )
        index.add(np.random.default_rng(0).integers(0, 2, size=(40, 8)))
        index.remove([3, 19])
        return index

    def test_meta_and_digests_keep_their_bytes(self):
        """The persisted record and both fingerprints are the ones
        format 2 has always produced, before and after a whole-index
        reconfigure (pinned digests)."""
        index = self.build()
        meta, _ = index.export_state()
        assert json.dumps(meta, sort_keys=True) == json.dumps(
            v2_meta(), sort_keys=True
        )
        assert index.fingerprint() == "5e1bf9ba2b037ada04b06045553fbda8"
        assert (
            index.content_fingerprint() == "f52244fddce30895b054a20b367733b2"
        )
        index.reconfigure(metric="manhattan", bits=2)
        assert index.export_state()[0] == v2_meta(metric="manhattan")
        assert index.fingerprint() == "67cd5a2d95a0d46c0c0d78ac33d33e75"
        assert (
            index.content_fingerprint() == "7ecf7b72a9d64df24837c5c5d894f486"
        )

    @pytest.mark.parametrize(
        "metric,bits",
        [("hamming", 2), ("manhattan", 2), ("euclidean", 2), ("hamming", 3)],
    )
    def test_saved_v2_file_loads(self, queries, tmp_path, metric, bits):
        index = self.build()
        index.reconfigure(metric=metric, bits=bits)
        _, arrays = index.export_state()
        path = tmp_path / "v2.npz"
        save_v2(path, v2_meta(metric=metric, bits=bits), **arrays)
        loaded = FerexIndex.load(path)
        assert loaded.content_fingerprint() == index.content_fingerprint()
        before = index.search(queries, k=4)
        after = loaded.search(queries, k=4)
        assert np.array_equal(before.ids, after.ids)
        assert np.array_equal(before.distances, after.distances)

    @pytest.mark.parametrize(
        "configs",
        [
            [("hamming", 2), ("hamming", 1), ("hamming", 2)],
            [("hamming", 2), ("hamming", 2), ("manhattan", 2)],
            [("euclidean", 1), ("hamming", 2), ("manhattan", 2)],
            # Every bank agrees, but not with the index config.
            [("hamming", 1)] * 3,
        ],
    )
    def test_heterogeneous_bank_configs_refused(self, tmp_path, configs):
        """A fleet whose banks ran at other configs than the index
        cannot be rebuilt: every bank runs at the index config."""
        _, arrays = self.build().export_state()
        records = [{"metric": m, "bits": b} for m, b in configs]
        meta = v2_meta(bank_configs=records)
        with pytest.raises(ValueError, match="bank_configs"):
            FerexIndex.from_state(meta, **arrays)
        path = tmp_path / "mixed.npz"
        save_v2(path, meta, **arrays)
        with pytest.raises(ValueError, match="bank_configs"):
            FerexIndex.load(path)

    @pytest.mark.parametrize("backend", ["ferex", "exact", "tiered"])
    def test_meta_records_no_bank_configs(self, backend):
        """Every bank runs at the index config, so no backend records
        per-bank configs, before or after a reconfigure and compact."""
        index = FerexIndex(
            dims=8, metric="hamming", bits=2, backend=backend, bank_rows=16
        )
        index.add(np.random.default_rng(0).integers(0, 2, size=(40, 8)))
        assert index.export_state()[0]["bank_configs"] is None
        index.remove([1, 30])
        index.reconfigure(metric="euclidean", bits=1)
        index.compact()
        meta, arrays = index.export_state()
        assert meta["bank_configs"] is None
        loaded = FerexIndex.from_state(meta, **arrays)
        assert loaded.config == index.config
        assert loaded.content_fingerprint() == index.content_fingerprint()
