"""Tiered coarse-to-fine search: the low-bit shortlist + full-precision
rescore path of the `"tiered"` backend kind (the only form — there is
no per-call search mode)."""

import numpy as np
import pytest

from repro.core import BankConfig, code_dtype
from repro.core.distance import DistanceMetric, get_metric
from repro.index import (
    ExactBackend,
    FerexBackend,
    FerexIndex,
    RoutedBackend,
    TieredBackend,
)
from repro.index.backends import refine

DIMS = 8
BITS = 3


@pytest.fixture
def stored(rng):
    return rng.integers(0, 1 << BITS, size=(40, DIMS))


@pytest.fixture
def queries(rng):
    return rng.integers(0, 1 << BITS, size=(12, DIMS))


def build(stored, backend="tiered", **kwargs):
    index = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=BITS,
        backend=backend,
        bank_rows=16,
        **kwargs,
    )
    index.add(stored)
    return index


def exact_rank_distances(queries, stored, ids, metric="manhattan"):
    """True distance of each returned id, for distance-parity checks
    that tolerate legitimate tie reordering."""
    table = get_metric(metric).pairwise(queries, stored, BITS)
    return np.take_along_axis(table, ids, axis=1)


class TestTieredMode:
    def test_full_refine_matches_exact_distances(self, stored, queries):
        """With a shortlist covering every row the rescore is a full
        exact search: distance-at-rank must equal the exact backend's
        at every rank (ids may swap only within ties)."""
        index = build(stored, backend_options={"refine_factor": 1000})
        exact = build(stored, backend="exact")
        tiered = index.search(queries, k=5)
        reference = exact.search(queries, k=5)
        np.testing.assert_array_equal(
            tiered.distances, reference.distances
        )
        np.testing.assert_array_equal(
            exact_rank_distances(queries, stored, tiered.ids),
            reference.distances,
        )

    def test_distances_are_exact_integers(self, stored, queries):
        index = build(stored)
        result = index.search(queries, k=3)
        assert np.array_equal(result.distances, result.distances.round())
        np.testing.assert_array_equal(
            exact_rank_distances(queries, stored, result.ids),
            result.distances,
        )

    def test_tombstones_never_returned(self, stored, queries):
        index = build(stored)
        dead = [1, 7, 20, 33]
        index.remove(dead)
        result = index.search(queries, k=10)
        assert not np.isin(result.ids, dead).any()

    def test_coarse_tier_sees_rows_added_later(self, stored, queries):
        index = build(stored[:20])
        first = index.search(queries, k=3)
        index.add(stored[20:])
        second = index.search(queries, k=3)
        # The coarse tier saw the new rows (some query must now prefer
        # one).
        assert first.ids.max() < 20
        assert second.ids.max() >= 20

    def test_padding_matches_flat(self, stored, queries):
        index = build(stored[:3])
        flat = build(stored[:3], backend="ferex")
        result = index.search(queries, k=5)
        assert result.ids.shape == (len(queries), 5)
        assert (result.ids[:, 3:] == -1).all()
        assert np.isinf(result.distances[:, 3:]).all()
        padding = flat.search(queries, k=5)
        np.testing.assert_array_equal(result.ids[:, 3:], padding.ids[:, 3:])
        np.testing.assert_array_equal(
            result.distances[:, 3:], padding.distances[:, 3:]
        )

    def test_unknown_mode_rejected(self, stored, queries):
        """Tiered search is a backend, not a per-call mode: any
        ``mode=`` keyword is rejected outright."""
        index = build(stored)
        with pytest.raises(TypeError):
            index.search(queries, k=1, mode="fuzzy")
        with pytest.raises(TypeError):
            index.search(queries, k=1, mode="tiered")

    def test_tiered_knobs_rejected_on_search(self, stored, queries):
        """The tiered knobs are backend options, not search keywords."""
        index = build(stored)
        with pytest.raises(TypeError):
            index.search(queries, k=1, refine_factor=4)
        with pytest.raises(TypeError):
            index.search(queries, k=1, coarse_bits=1)

    def test_recall_reasonable_on_clustered_data(self):
        """On clustered data (the regime tiered search targets) the
        1-bit shortlist keeps the true neighbors."""
        rng = np.random.default_rng(42)
        centers = rng.integers(0, 1 << BITS, size=(8, DIMS))
        noise = rng.integers(-1, 2, size=(160, DIMS))
        stored = np.clip(
            centers[rng.integers(0, 8, size=160)] + noise,
            0,
            (1 << BITS) - 1,
        )
        queries = np.clip(
            centers[rng.integers(0, 8, size=24)]
            + rng.integers(-1, 2, size=(24, DIMS)),
            0,
            (1 << BITS) - 1,
        )
        index = FerexIndex(
            dims=DIMS,
            metric="manhattan",
            bits=BITS,
            bank_rows=32,
            backend="tiered",
        )
        index.add(stored)
        exact = FerexIndex(
            dims=DIMS, metric="manhattan", bits=BITS, backend="exact"
        )
        exact.add(stored)
        k = 5
        tiered = index.search(queries, k=k)
        truth = exact.search(queries, k=k)
        # Tie-tolerant recall: a returned id is correct if its true
        # distance is within the true k-th distance.
        true_d = exact_rank_distances(queries, stored, tiered.ids)
        threshold = truth.distances[:, -1:]
        recall = (true_d <= threshold).mean()
        assert recall >= 0.9


class TestTieredBackend:
    def test_constructible_via_registry(self, stored, queries):
        index = build(
            stored,
            backend="tiered",
            backend_options={"coarse_bits": 1, "refine_factor": 6},
        )
        assert isinstance(index.backend, TieredBackend)
        assert index.backend.coarse_bits == 1
        assert index.backend.refine_factor == 6
        result = index.search(queries, k=3)
        assert result.ids.shape == (len(queries), 3)

    def test_save_load_round_trip(self, stored, queries, tmp_path):
        index = build(
            stored,
            backend="tiered",
            backend_options={"refine_factor": 4},
        )
        index.remove([2, 8])
        path = tmp_path / "tiered.npz"
        index.save(path)
        loaded = FerexIndex.load(path)
        assert isinstance(loaded.backend, TieredBackend)
        assert loaded.backend.refine_factor == 4
        before = index.search(queries, k=4)
        after = loaded.search(queries, k=4)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
        assert index.content_fingerprint() == loaded.content_fingerprint()

    def test_coarse_bits_clamped_to_config(self):
        backend = TieredBackend(
            BankConfig("manhattan", 2), DIMS, coarse_bits=5
        )
        assert backend.coarse_bits == 2

    def test_knob_validation(self):
        with pytest.raises(ValueError, match="coarse_bits"):
            TieredBackend(BankConfig("hamming", 2), DIMS, coarse_bits=0)
        with pytest.raises(ValueError, match="refine_factor"):
            TieredBackend(BankConfig("hamming", 2), DIMS, refine_factor=0)

    def test_refine_factor_widens_the_shortlist(self, stored):
        """The backend's ``refine_factor`` option is honored: a wide
        shortlist must beat a ``refine_factor=1`` one."""
        queries = stored[:6]
        narrow_index = build(stored, backend_options={"refine_factor": 1})
        wide_index = build(stored, backend_options={"refine_factor": 1000})
        narrow = narrow_index.search(queries, k=8)
        wide = wide_index.search(queries, k=8)
        # The widened shortlist is a full exact search; a
        # refine_factor=1 shortlist of 8 cannot beat it everywhere.
        assert (wide.distances <= narrow.distances).all()
        assert (wide.distances < narrow.distances).any()

    def test_compact_keeps_parity(self, stored, queries):
        index = build(stored, backend="tiered")
        index.remove([0, 1, 2, 3])
        before = index.search(queries, k=4)
        index.compact()
        after = index.search(queries, k=4)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)


class TestWideCodes:
    """Regression: the rescore stores were hard-coded int16, so codes
    >= 32768 wrapped silently (16-bit tiered search disagreed with
    exact while 15-bit agreed).  Every code mirror below the index now
    takes its dtype from the one ``code_dtype`` rule; the cases sit on
    both sides of each of its boundaries (int8 -> int16 at 3 / 4 bits,
    int16 -> int32 at 7 / 8, int32 -> int64 at 15 / 16)."""

    DIMS = 4
    BOUNDARY_BITS = [3, 4, 7, 8, 15, 16]

    def _data(self, bits):
        rng = np.random.default_rng(bits)
        stored = rng.integers(0, 1 << bits, size=(40, self.DIMS))
        stored[0] = (1 << bits) - 1  # the widest code is always present
        queries = rng.integers(0, 1 << bits, size=(6, self.DIMS))
        return stored, queries

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_full_refine_matches_exact(self, bits):
        stored, queries = self._data(bits)
        reference = FerexIndex(
            dims=self.DIMS, metric="manhattan", bits=bits, backend="exact"
        )
        reference.add(stored)
        tiered = FerexIndex(
            dims=self.DIMS,
            metric="manhattan",
            bits=bits,
            backend="tiered",
            backend_options={"refine_factor": 1000},
        )
        tiered.add(stored)
        expected = reference.search(queries, k=5)
        result = tiered.search(queries, k=5)
        np.testing.assert_array_equal(result.ids, expected.ids)
        np.testing.assert_array_equal(result.distances, expected.distances)

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_routed_tiered_rescore_matches_exact(self, bits):
        """The routed backend's rescore leg: its store and the shared
        ``refine`` over every row.  (Driven below the router — centroid
        scoring needs a 4**bits-entry LUT, so a routed index this wide
        cannot be built end to end.)"""
        stored, queries = self._data(bits)
        config = BankConfig("manhattan", bits)
        routed = RoutedBackend(config, dims=self.DIMS, inner="tiered")
        store = routed._vectors
        assert store.dtype == code_dtype(bits)
        assert np.iinfo(store.dtype).max >= (1 << bits) - 1
        store = np.concatenate([store, stored.astype(store.dtype)])
        np.testing.assert_array_equal(store, stored)
        candidates = np.tile(np.arange(len(stored)), (len(queries), 1))
        exact = ExactBackend(config, dims=self.DIMS)
        exact.add(stored)
        expected = exact.search(queries, 5)
        result = refine(config, store, queries, candidates, 5)
        np.testing.assert_array_equal(result[0], expected[0])
        np.testing.assert_array_equal(result[1], expected[1])

    @pytest.mark.parametrize("bits", [3, 4, 7, 8])
    def test_engine_and_bank_mirrors_keep_the_widest_code(self, bits):
        """``_Bank.vectors`` and ``FeReX.stored`` round-trip
        ``2**bits - 1``, across a bank grow.  (A 15 / 16-bit cell has
        no feasible encoding to build; those widths are covered at the
        store level above.)"""
        stored, _ = self._data(bits)
        backend = FerexBackend(
            BankConfig("hamming", bits), dims=self.DIMS, bank_rows=64
        )
        backend.add(stored[:3])
        backend.add(stored[3:])
        (bank,) = backend._banks
        assert bank.vectors.dtype == code_dtype(bits)
        assert bank.engine.stored.dtype == code_dtype(bits)
        np.testing.assert_array_equal(bank.vectors, stored)
        np.testing.assert_array_equal(
            bank.engine.stored[: len(stored)], stored
        )

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_rowwise_passes_narrow_blocks_through_per_code_dtype(
        self, bits, monkeypatch
    ):
        """``rowwise`` computes on a narrow block untouched exactly
        when the block is at least ``code_dtype(bits)`` wide, and at
        that width the widest squared difference does not wrap."""
        seen = []
        bulk_sum = DistanceMetric._bulk_sum

        def spy(metric, q, s, bits):
            seen.append(q.dtype)
            return bulk_sum(metric, q, s, bits)

        monkeypatch.setattr(DistanceMetric, "_bulk_sum", spy)
        euclidean = get_metric("euclidean")
        for dtype in (np.int8, np.int16, np.int32, np.int64):
            fits = np.dtype(dtype).itemsize >= code_dtype(bits).itemsize
            euclidean.rowwise(
                np.ones((2, self.DIMS), dtype),
                np.zeros((2, 3, self.DIMS), dtype),
                bits,
            )
            assert seen[-1] == (dtype if fits else np.int64)
        widest = (1 << bits) - 1
        distances = euclidean.rowwise(
            np.full((2, self.DIMS), widest, code_dtype(bits)),
            np.zeros((2, 3, self.DIMS), code_dtype(bits)),
            bits,
        )
        assert seen[-1] == code_dtype(bits)
        assert np.all(distances == self.DIMS * widest * widest)



class TestOneClusterRoutedIndex:
    """Tiered search is a routed index with one cluster probed in
    ``inner="tiered"`` mode: it keeps no state or method of its own,
    and what routed indexes do — persist their routing, re-route,
    compact at the tombstone watermark — tiered indexes now do too."""

    def test_only_defaults_of_its_own(self):
        assert issubclass(TieredBackend, RoutedBackend)
        own = {key for key in vars(TieredBackend) if not key.startswith("__")}
        assert own == {"name"}
        assert vars(TieredBackend)["__init__"].keywords == {
            "n_clusters": 1,
            "top_p": 1,
            "inner": "tiered",
        }

    def test_parent_options_rebuild_the_same_index(self, stored, queries):
        """A state whose options carry only the tiered knobs (what a
        standalone tiered backend persisted) rebuilds an index with the
        same answers and content fingerprint."""
        index = build(stored, backend_options={"refine_factor": 4})
        index.remove([2, 8, 30])
        meta, arrays = index.export_state()
        meta["backend_options"] = {
            key: meta["backend_options"][key]
            for key in ("coarse_bits", "refine_factor")
        }
        rebuilt = FerexIndex.from_state(
            meta, arrays["vectors"], arrays["ids"], arrays["alive"]
        )
        assert isinstance(rebuilt.backend, TieredBackend)
        before = index.search(queries, k=4)
        after = rebuilt.search(queries, k=4)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
        assert rebuilt.content_fingerprint() == index.content_fingerprint()

    def test_rerouted_index_survives_save_load(
        self, stored, queries, tmp_path
    ):
        index = build(stored)
        index.remove([5, 6])
        assert index.reconfigure_routing(n_clusters=4) == (1, 4)
        assert index.backend.n_trained_clusters == 4
        index.save(tmp_path / "rerouted.npz")
        loaded = FerexIndex.load(tmp_path / "rerouted.npz")
        assert isinstance(loaded.backend, TieredBackend)
        assert loaded.backend.n_trained_clusters == 4
        before = index.search(queries, k=4)
        after = loaded.search(queries, k=4)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.distances, after.distances)
        assert loaded.content_fingerprint() == index.content_fingerprint()

    def test_watermark_compaction_keeps_answers(self, stored, queries):
        """Removing >= 35 % of rows crosses the default watermark: the
        coarse tier re-programs from its live rows, and the answers
        equal an index that never compacts."""
        default = build(stored)
        never = build(stored, backend_options={"compact_watermark": 1.0})
        dead = np.arange(0, len(stored), 2)  # half the rows
        for index in (default, never):
            index.remove(dead)
        assert default.backend.n_auto_compactions >= 1
        assert never.backend.n_auto_compactions == 0
        a = default.search(queries, k=6)
        b = never.search(queries, k=6)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)
        assert not np.isin(a.ids, dead).any()

    def test_reports_its_routing(self, stored, queries):
        index = build(stored)
        index.search(queries, k=3)
        assert index.last_routing["n_clusters"] == 1
        assert index.last_routing["scan_fraction"] == 1.0
