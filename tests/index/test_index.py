"""FerexIndex facade: writes, ids, tombstones, search semantics."""

import numpy as np
import pytest

from repro.core.engine import NotProgrammedError
from repro.index import BankConfig, FerexIndex


@pytest.fixture
def vectors(rng):
    return rng.integers(0, 4, size=(40, 8))


@pytest.fixture
def queries(rng):
    return rng.integers(0, 4, size=(6, 8))


def make_index(**kwargs):
    defaults = dict(dims=8, metric="hamming", bits=2, bank_rows=16)
    defaults.update(kwargs)
    return FerexIndex(**defaults)


class TestAdd:
    def test_auto_ids_sequential(self, vectors):
        index = make_index()
        ids = index.add(vectors)
        assert ids.tolist() == list(range(40))
        more = index.add(vectors[:3])
        assert more.tolist() == [40, 41, 42]

    def test_banks_open_as_capacity_fills(self, vectors):
        index = make_index(bank_rows=16)
        index.add(vectors)  # 40 rows over banks of 16
        assert index.n_banks == 3
        assert len(index) == index.ntotal == 40

    def test_explicit_ids(self, vectors):
        index = make_index()
        ids = index.add(vectors[:4], ids=[10, 20, 30, 40])
        assert ids.tolist() == [10, 20, 30, 40]
        # auto ids continue past the explicit maximum
        assert index.add(vectors[4:5]).tolist() == [41]

    def test_duplicate_ids_rejected(self, vectors):
        index = make_index()
        with pytest.raises(ValueError):
            index.add(vectors[:2], ids=[7, 7])
        index.add(vectors[:2], ids=[1, 2])
        with pytest.raises(ValueError):
            index.add(vectors[2:3], ids=[2])

    def test_validation(self, vectors):
        index = make_index()
        with pytest.raises(ValueError):
            index.add(vectors[:, :5])  # wrong dims
        with pytest.raises(ValueError):
            index.add(np.full((2, 8), 9))  # outside the alphabet
        with pytest.raises(ValueError):
            index.add(vectors[:3], ids=[1, 2])  # id count mismatch
        with pytest.raises(ValueError, match="non-negative"):
            index.add(vectors[:1], ids=[-1])  # reads as -1 padding
        with pytest.raises(ValueError, match="fractional"):
            index.add(vectors[:2], ids=[1.7, 2.2])  # truncated to 1, 2
        with pytest.raises(ValueError, match="integer-valued"):
            index.add(vectors[:1], ids=["3"])  # a string is no id
        fractional = np.zeros((1, 8))
        fractional[0, -1] = 0.6
        with pytest.raises(ValueError, match="fractional"):
            index.add(fractional)  # stored as all zeros
        assert index.ntotal == 0 and index.write_generation == 0
        assert index.add(np.empty((0, 8), dtype=int)).shape == (0,)

    @pytest.mark.parametrize("backend", ["ferex", "exact", "tiered"])
    @pytest.mark.parametrize(
        "bad_ids", [[-1], [5, -2], [np.iinfo(np.int64).min, 3]]
    )
    def test_negative_ids_leave_a_stored_index_untouched(
        self, vectors, queries, backend, bad_ids
    ):
        """A rejected add on a populated index changes nothing: live
        rows, write generation, the next auto id and every answer."""
        index = make_index(backend=backend)
        index.add(vectors[:20])
        before = index.search(queries, k=3)
        generation = index.write_generation
        with pytest.raises(ValueError, match="non-negative"):
            index.add(vectors[20 : 20 + len(bad_ids)], ids=bad_ids)
        assert index.ntotal == 20
        assert index.write_generation == generation
        after = index.search(queries, k=3)
        assert np.array_equal(after.ids, before.ids)
        assert np.array_equal(after.distances, before.distances)
        assert (after.ids >= 0).all()
        assert index.add(vectors[20:21]).tolist() == [20]

    def test_failed_backend_add_leaves_index_empty(self, vectors):
        """add() must be atomic: a backend that rejects the write (e.g.
        an infeasible cell encoding solved lazily at first add) leaves
        no phantom vectors behind."""
        from repro.core.engine import NotProgrammedError
        from repro.index import ExactBackend

        class Exploding(ExactBackend):
            def add(self, vectors):
                raise RuntimeError("no feasible cell")

        index = FerexIndex(
            dims=8, backend=Exploding(BankConfig("hamming", 2), 8)
        )
        with pytest.raises(RuntimeError, match="no feasible cell"):
            index.add(vectors)
        assert index.ntotal == 0 and len(index._id_to_pos) == 0
        with pytest.raises(NotProgrammedError):
            index.search(vectors[:1])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            FerexIndex(dims=0)
        with pytest.raises(ValueError):
            FerexIndex(dims=4, bits=0)
        with pytest.raises(ValueError):
            FerexIndex(dims=4, bank_rows=0)
        with pytest.raises(ValueError):
            FerexIndex(dims=4, backend="quantum")


class TestSearch:
    def test_shapes_and_id_mapping(self, vectors, queries):
        index = make_index()
        index.add(vectors, ids=np.arange(100, 140))
        ids, distances = index.search(queries, k=3)
        assert ids.shape == distances.shape == (6, 3)
        assert ids.min() >= 100 and ids.max() < 140

    def test_exact_match_wins(self, vectors):
        index = make_index()
        index.add(vectors)
        ids, distances = index.search(vectors[[7]], k=1)
        assert ids[0, 0] == 7

    @pytest.mark.parametrize("backend", ["ferex", "exact", "gpu"])
    def test_k_beyond_live_rows_pads_consistently(
        self, vectors, queries, backend
    ):
        """Satellite regression: every backend pads ``k > live rows``
        with (-1, inf) sentinels and keeps the (n, k) output shape."""
        index = make_index(backend=backend)
        index.add(vectors[:5])
        ids, distances = index.search(queries, k=10)
        assert ids.shape == distances.shape == (6, 10)
        # each query sees every stored vector exactly once, then pads
        assert all(sorted(row) == list(range(5)) for row in ids[:, :5])
        assert (ids[:, 5:] == -1).all()
        assert np.isinf(distances[:, 5:]).all()
        assert np.isfinite(distances[:, :5]).all()

    @pytest.mark.parametrize("backend", ["ferex", "exact", "gpu"])
    def test_padding_tracks_tombstones(self, vectors, queries, backend):
        """The pad threshold is the *live* row count: tombstoned rows
        neither compete nor count."""
        index = make_index(backend=backend)
        index.add(vectors[:5])
        index.remove([1, 3])
        ids, distances = index.search(queries, k=5)
        assert ids.shape == (6, 5)
        assert all(sorted(row) == [0, 2, 4] for row in ids[:, :3])
        assert (ids[:, 3:] == -1).all()
        assert np.isinf(distances[:, 3:]).all()

    def test_empty_index_raises_not_programmed(self, queries):
        index = make_index()
        with pytest.raises(NotProgrammedError):
            index.search(queries)

    def test_engine_and_index_raise_same_type(self, queries):
        """Satellite: the unified pre-program exception type spans the
        engine and the index."""
        from repro.core.engine import FeReX

        engine = FeReX(metric="hamming", bits=2, dims=8)
        for fn in (
            lambda: engine.search(queries[0]),
            lambda: engine.search_batch(queries),
            lambda: engine.search_k_batch(queries, 1),
            lambda: make_index().search(queries),
        ):
            with pytest.raises(NotProgrammedError):
                fn()

    def test_empty_query_batch_keeps_k_width(self, vectors):
        """(0, k) shapes, so downstream column indexing stays valid."""
        index = make_index()
        index.add(vectors)
        ids, distances = index.search(np.empty((0, 8), dtype=int), k=3)
        assert ids.shape == (0, 3) and distances.shape == (0, 3)
        ids, _ = index.search(np.empty((0, 8), dtype=int), k=100)
        assert ids.shape == (0, 100)  # padded like a non-empty batch

    def test_hdc_empty_predict_survives(self):
        """Regression: HDC ferex inference on an empty batch indexes
        column 0 of the search result."""
        from repro.apps.datasets import make_isolet
        from repro.apps.hdc.model import HDCClassifier

        ds = make_isolet(train_size=60, test_size=10, seed=6)
        model = HDCClassifier(
            n_features=ds.n_features, n_classes=ds.n_classes, dim=64,
            metric="hamming", bits=1, epochs=0, backend="ferex", seed=5,
        ).fit(ds.train_x, ds.train_y)
        assert model.predict(np.empty((0, ds.n_features))).shape == (0,)

    def test_invalid_k(self, vectors, queries):
        index = make_index()
        index.add(vectors)
        with pytest.raises(ValueError):
            index.search(queries, k=0)
        fractional = np.zeros((1, 8))
        fractional[0, -1] = 0.9
        with pytest.raises(ValueError, match="fractional"):
            index.search(fractional)  # answered as the all-zeros query


class TestRemoveCompact:
    def test_removed_ids_never_returned(self, vectors, queries):
        index = make_index()
        index.add(vectors)
        baseline_ids, _ = index.search(queries, k=3)
        victims = np.unique(baseline_ids[:, 0])
        assert index.remove(victims) == len(victims)
        assert index.ntotal == 40 - len(victims)
        ids, _ = index.search(queries, k=3)
        assert not np.isin(ids, victims).any()

    def test_unknown_id_raises(self, vectors):
        index = make_index()
        index.add(vectors)
        with pytest.raises(KeyError):
            index.remove([999])
        with pytest.raises(KeyError):
            index.remove([0, 0])  # second removal of the same id

    def test_failed_remove_leaves_index_consistent(self, vectors):
        """A rejected remove request must not mutate anything."""
        index = make_index()
        index.add(vectors)
        for bad in ([0, 0], [3, 999]):
            with pytest.raises(KeyError):
                index.remove(bad)
        with pytest.raises(ValueError, match="fractional"):
            index.remove([2.9])  # truncated to id 2
        assert index.ntotal == 40
        # every id in the rejected requests lives on
        index.remove([0, 2, 3])
        assert index.ntotal == 37

    def test_compact_preserves_ids_and_results(self, vectors, queries):
        index = make_index()
        index.add(vectors)
        index.remove([0, 5, 17, 31])
        before_ids, _ = index.search(queries, k=3)
        index.compact()
        assert index.ntotal == 36
        after_ids, _ = index.search(queries, k=3)
        assert np.array_equal(before_ids, after_ids)

    def test_compact_shrinks_banks(self, vectors):
        index = make_index(bank_rows=16)
        index.add(vectors)
        index.remove(np.arange(20))
        assert index.n_banks == 3  # tombstones keep the layout
        index.compact()
        assert index.n_banks == 2  # 20 live rows over banks of 16

    def test_remove_all_then_search_raises(self, vectors, queries):
        index = make_index()
        index.add(vectors[:3])
        index.remove([0, 1, 2])
        with pytest.raises(NotProgrammedError):
            index.search(queries)

    def test_id_reusable_after_remove(self, vectors):
        index = make_index()
        index.add(vectors[:2], ids=[5, 6])
        index.remove([5])
        index.add(vectors[2:3], ids=[5])  # freed id may return
        ids, _ = index.search(vectors[[2]], k=1)
        assert ids[0, 0] == 5


class TestGenerationFingerprint:
    def test_generation_bumps_on_every_mutation(self, vectors):
        index = make_index()
        assert index.write_generation == 0
        index.add(vectors[:4])
        assert index.write_generation == 1
        index.add(vectors[4:6])
        assert index.write_generation == 2
        index.remove([0])
        assert index.write_generation == 3
        index.compact()
        assert index.write_generation == 4

    def test_failed_mutations_leave_generation_unchanged(self, vectors):
        index = make_index()
        index.add(vectors[:4])
        generation = index.write_generation
        with pytest.raises(ValueError):
            index.add(vectors[:2], ids=[1, 1])
        with pytest.raises(KeyError):
            index.remove([999])
        assert index.write_generation == generation

    def test_fingerprint_tracks_mutation_history(self, vectors):
        a, b = make_index(), make_index()
        assert a.fingerprint() == b.fingerprint()
        a.add(vectors[:4])
        assert a.fingerprint() != b.fingerprint()
        b.add(vectors[:4])
        assert a.fingerprint() == b.fingerprint()
        a.remove([2])
        b.remove([2])
        assert a.fingerprint() == b.fingerprint()
        a.add(vectors[4:5])
        b.add(vectors[5:6])  # same op, different payload
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_sees_configuration(self):
        assert (
            make_index(bits=2).fingerprint()
            != make_index(bits=1).fingerprint()
        )
        assert (
            make_index(backend="exact").fingerprint()
            != make_index(backend="ferex").fingerprint()
        )

    def test_load_matches_load_not_source(self, vectors, tmp_path):
        index = make_index()
        index.add(vectors[:6])
        index.remove([1])
        index.save(tmp_path / "idx.npz")
        first = FerexIndex.load(tmp_path / "idx.npz")
        second = FerexIndex.load(tmp_path / "idx.npz")
        assert first.fingerprint() == second.fingerprint()
        assert first.write_generation == second.write_generation > 0


class TestIntrospection:
    def test_repr_mentions_backend_and_size(self, vectors):
        index = make_index()
        index.add(vectors)
        text = repr(index)
        assert "ferex" in text and "ntotal=40" in text

    def test_exact_backend_reports_no_banks(self, vectors):
        index = make_index(backend="exact")
        index.add(vectors)
        assert index.n_banks == 0
