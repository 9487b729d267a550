"""RoutedBackend: cluster training, pinning, probe expansion,
watermark compaction, persistence of trained centroids, and the
routing knobs (`src/repro/index/routing.py`)."""

import numpy as np
import pytest

from repro.core.config import BankConfig
from repro.core.distance import DistanceMetric, get_metric
from repro.index import BACKENDS, FerexIndex, RoutedBackend, routing
from repro.index.routing import assign_codes, train_centroids


def _clustered(rng, rows, dims=16, bits=2, centers=8):
    hi = 1 << bits
    anchor = rng.integers(0, hi, size=(centers, dims))
    picks = anchor[rng.integers(0, centers, size=rows)]
    return np.clip(picks + rng.integers(-1, 2, size=(rows, dims)), 0, hi - 1)


def _routed(rows_data, **options):
    defaults = {"n_clusters": 4, "top_p": 2, "routing_seed": 5}
    defaults.update(options)
    index = FerexIndex(
        dims=rows_data.shape[1],
        metric="hamming",
        bits=2,
        bank_rows=16,
        backend="routed",
        backend_options=defaults,
    )
    index.add(rows_data)
    return index


class TestRegistry:
    def test_routed_is_registered(self):
        assert BACKENDS["routed"] is RoutedBackend

    def test_constructor_validation(self):
        config = BankConfig("hamming", 2)
        with pytest.raises(TypeError, match="dims"):
            RoutedBackend(config)
        for bad in (
            {"n_clusters": 0},
            {"top_p": 0},
            {"kmeans_iters": 0},
            {"train_rows": 0},
            {"compact_watermark": 0.0},
            {"compact_watermark": 1.5},
            {"inner": "warp"},
            {"coarse_bits": 0},
            {"refine_factor": 0},
        ):
            with pytest.raises(ValueError):
                RoutedBackend(config, dims=8, **bad)


class TestTraining:
    def test_centroids_deterministic(self, rng):
        vectors = _clustered(rng, 200)
        config = BankConfig("hamming", 2)
        a = train_centroids(vectors, 6, config, seed=3)
        b = train_centroids(vectors, 6, config, seed=3)
        assert np.array_equal(a, b)
        assert a.shape == (6, 16)
        assert a.min() >= 0 and a.max() < 4

    def test_clamped_to_training_rows(self, rng):
        vectors = _clustered(rng, 3)
        config = BankConfig("hamming", 2)
        assert len(train_centroids(vectors, 10, config, seed=0)) == 3

    def test_assignment_is_nearest_with_low_index_ties(self, rng):
        vectors = _clustered(rng, 50)
        config = BankConfig("hamming", 2)
        centroids = train_centroids(vectors, 4, config, seed=1)
        assign = assign_codes(vectors, centroids, config)
        table = config.resolved.pairwise(vectors, centroids, 2)
        assert np.array_equal(assign, np.argmin(table, axis=1))

    def test_element_table_built_once_per_training(self, rng, monkeypatch):
        """An 8-bit training builds its ``4**bits`` element table once,
        not once per Lloyd iteration, and trains exactly as a table
        rebuilt at every call does."""
        element = get_metric("manhattan").element_fn
        calls = [0]

        def counted(search_value, stored_value, bits):
            calls[0] += 1
            return element(search_value, stored_value, bits)

        # A fresh metric object: nothing cached under it yet.
        config = BankConfig(DistanceMetric("manhattan", counted), 8)
        per_table = 4**8
        vectors = _clustered(rng, 300, dims=8, bits=8, centers=6)
        centroids = train_centroids(vectors, 6, config, seed=2)
        assign = assign_codes(vectors, centroids, config)
        assert calls[0] == per_table
        table = routing.metric_element_lut(config.resolved, 8)
        assert not table.flags.writeable

        calls[0] = 0
        uncached = routing.metric_element_lut.__wrapped__
        monkeypatch.setattr(routing, "metric_element_lut", uncached)
        reference = train_centroids(vectors, 6, config, seed=2)
        assert calls[0] > per_table  # several Lloyd iterations ran
        assert np.array_equal(centroids, reference)
        assert np.array_equal(assign, assign_codes(vectors, reference, config))

    def test_training_happens_at_first_add(self, rng):
        backend = RoutedBackend(
            BankConfig("hamming", 2), dims=16, n_clusters=4
        )
        assert backend.centroids is None
        assert backend.n_trained_clusters == 0
        backend.add(_clustered(rng, 60))
        assert backend.centroids is not None
        assert backend.n_trained_clusters == 4
        assert backend.cluster_sizes().sum() == 60


class TestSearchAndExpansion:
    def test_every_row_reachable_across_clusters(self, rng):
        """k beyond any one cluster: the probe plan must widen so no
        padded slot is ever returned while live rows remain."""
        data = _clustered(rng, 64)
        index = _routed(data, n_clusters=8, top_p=1)
        queries = _clustered(rng, 5)
        result = index.search(queries, k=60)
        assert (result.ids >= 0).all()
        routing = index.last_routing
        assert routing["expanded_queries"] == 5
        assert routing["probed_clusters_mean"] > 1

    def test_last_routing_accounting(self, rng):
        data = _clustered(rng, 120)
        index = _routed(data, n_clusters=6, top_p=2)
        index.search(_clustered(rng, 4), k=3)
        routing = index.last_routing
        assert routing["n_queries"] == 4
        assert routing["n_clusters"] == 6
        assert routing["top_p"] == 2
        assert 0 < routing["scan_fraction"] <= 1
        assert routing["rows_scanned"] <= routing["rows_live"]

    def test_non_routed_backend_has_no_last_routing(self, rng):
        index = FerexIndex(dims=16, metric="hamming", bits=2)
        index.add(_clustered(rng, 20))
        index.search(_clustered(rng, 2), k=1)
        assert index.last_routing is None

    def test_top_p_trades_scan_for_recall(self, rng):
        data = _clustered(rng, 300)
        index = _routed(data, n_clusters=8, top_p=1)
        queries = _clustered(rng, 16)
        index.search(queries, k=5)
        narrow = index.last_routing["scan_fraction"]
        index.reconfigure_routing(top_p=8)
        index.search(queries, k=5)
        assert index.last_routing["scan_fraction"] > narrow

    def test_tiered_inner_matches_exact_at_full_probe(self, rng):
        """Full-probe, full-refine tiered inner rescans everything with
        exact distances and (distance, position) tie-breaks — exactly
        the exact reference backend's ordering."""
        data = _clustered(rng, 80)
        queries = _clustered(rng, 6)
        tiered = _routed(
            data,
            n_clusters=4,
            top_p=4,
            inner="tiered",
            coarse_bits=1,
            refine_factor=80,
        )
        exact = FerexIndex(
            dims=16, metric="hamming", bits=2, backend="exact"
        )
        exact.add(data)
        a = tiered.search(queries, k=5)
        b = exact.search(queries, k=5)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)

    def test_routed_shortlist_covers_requested_count(self, rng):
        data = _clustered(rng, 90)
        index = _routed(data, n_clusters=6, top_p=2)
        positions = index.backend.shortlist(_clustered(rng, 3), 40)
        assert positions.shape == (3, 40)
        assert (positions >= 0).all() and (positions < 90).all()
        for row in positions:
            assert len(np.unique(row)) == 40


class TestWatermarkCompaction:
    def test_tombstone_heavy_cluster_recompacts(self, rng):
        data = _clustered(rng, 100)
        index = _routed(
            data, n_clusters=1, top_p=1, compact_watermark=0.3
        )
        assert index.backend.n_auto_compactions == 0
        index.remove(np.arange(40))
        assert index.backend.n_auto_compactions >= 1
        result = index.search(_clustered(rng, 4), k=10)
        assert (result.ids >= 40).all()

    def test_light_churn_stays_uncompacted(self, rng):
        data = _clustered(rng, 100)
        index = _routed(
            data, n_clusters=1, top_p=1, compact_watermark=0.5
        )
        index.remove(np.arange(10))
        assert index.backend.n_auto_compactions == 0

    def test_compaction_preserves_results(self, rng):
        """The watermark fires mid-removal; searches afterwards equal a
        never-compacted routed index over the same live set."""
        data = _clustered(rng, 120)
        queries = _clustered(rng, 8)
        eager = _routed(
            data, n_clusters=3, top_p=3, compact_watermark=0.05
        )
        lazy = _routed(
            data, n_clusters=3, top_p=3, compact_watermark=1.0
        )
        drop = np.arange(0, 120, 3)
        eager.remove(drop)
        lazy.remove(drop)
        assert eager.backend.n_auto_compactions > 0
        assert lazy.backend.n_auto_compactions == 0
        a = eager.search(queries, k=6)
        b = lazy.search(queries, k=6)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)


class TestReconfigureRouting:
    def test_top_p_is_instant_and_persists_in_options(self, rng):
        index = _routed(_clustered(rng, 60))
        generation = index.write_generation
        assert index.reconfigure_routing(top_p=4) == (4, 4)
        assert index.write_generation == generation + 1
        meta, _ = index.export_state()
        assert meta["backend_options"]["top_p"] == 4

    def test_n_clusters_repins(self, rng):
        index = _routed(_clustered(rng, 100), n_clusters=4)
        assert index.backend.n_trained_clusters == 4
        index.reconfigure_routing(n_clusters=7)
        assert index.backend.n_trained_clusters == 7
        assert index.backend.cluster_sizes().sum() == 100
        result = index.search(_clustered(rng, 4), k=5)
        assert (result.ids >= 0).all()

    def test_requires_routed_backend(self, rng):
        index = FerexIndex(dims=16, metric="hamming", bits=2)
        index.add(_clustered(rng, 20))
        with pytest.raises(ValueError, match="routed"):
            index.reconfigure_routing(top_p=2)

    def test_requires_a_knob(self, rng):
        index = _routed(_clustered(rng, 40))
        with pytest.raises(ValueError, match="top_p and/or n_clusters"):
            index.reconfigure_routing()

    def test_validates_values(self, rng):
        index = _routed(_clustered(rng, 40))
        with pytest.raises(ValueError):
            index.reconfigure_routing(top_p=0)
        with pytest.raises(ValueError):
            index.reconfigure_routing(n_clusters=0)


class TestPersistence:
    def test_save_load_is_bit_identical(self, rng, tmp_path):
        index = _routed(_clustered(rng, 150), n_clusters=5, top_p=2)
        index.remove(np.arange(0, 30))
        queries = _clustered(rng, 6)
        before = index.search(queries, k=8)
        path = tmp_path / "routed.npz"
        index.save(path)
        loaded = FerexIndex.load(path)
        after = loaded.search(queries, k=8)
        assert np.array_equal(before.ids, after.ids)
        assert np.array_equal(before.distances, after.distances)
        assert (
            loaded.content_fingerprint() == index.content_fingerprint()
        )

    def test_exported_options_carry_trained_centroids(self, rng):
        index = _routed(_clustered(rng, 80), n_clusters=4)
        meta, _ = index.export_state()
        centroids = np.asarray(meta["backend_options"]["centroids"])
        assert np.array_equal(centroids, index.backend.centroids)

    def test_incremental_vs_bulk_replica_same_routing(self, rng):
        """The trained-centroid handoff: an index grown in two batches
        trains on the first batch only; a replica rebuilt from its
        state must adopt those centroids rather than retraining on the
        full set."""
        first = _clustered(rng, 64)
        second = _clustered(rng, 64)
        index = _routed(first, n_clusters=4, top_p=1, train_rows=64)
        index.add(second)
        replica = FerexIndex.from_state(*_flatten(index.export_state()))
        queries = _clustered(rng, 10)
        a = index.search(queries, k=5)
        b = replica.search(queries, k=5)
        assert np.array_equal(a.ids, b.ids)
        assert np.array_equal(a.distances, b.distances)

    def test_out_of_alphabet_centroids_ignored(self, rng):
        """Persisted centroids that no longer fit the configured
        alphabet (e.g. options from a wider-bit save) are dropped, and
        training re-runs on the next add."""
        backend = RoutedBackend(
            BankConfig("hamming", 1),
            dims=16,
            n_clusters=3,
            centroids=[[3] * 16, [2] * 16, [0] * 16],
        )
        assert backend.centroids is None
        backend.add(np.clip(_clustered(rng, 40), 0, 1))
        assert backend.centroids is not None
        assert backend.centroids.max() <= 1


class TestSubCodeHoisting:
    """Query quantisation is hoisted out of the per-cluster loop: one
    ``_sub_codes`` call per search/shortlist, however many clusters the
    probe plan touches — and the answers stay bit-identical to an
    unhoisted per-cluster re-encode (slicing a precomputed table of an
    elementwise code is the same rows)."""

    @staticmethod
    def _count_calls(backend):
        calls = []
        original = backend._sub_codes

        def counted(queries):
            calls.append(np.asarray(queries).shape)
            return original(queries)

        backend._sub_codes = counted
        return calls

    def test_search_quantises_once_per_batch(self, rng):
        index = _routed(_clustered(rng, 150), n_clusters=5, top_p=3)
        queries = _clustered(rng, 12)
        calls = self._count_calls(index.backend)
        index.search(queries, k=4)
        assert calls == [queries.shape]

    def test_tiered_search_quantises_once_per_batch(self, rng):
        index = _routed(
            _clustered(rng, 150),
            n_clusters=5,
            top_p=3,
            inner="tiered",
            coarse_bits=1,
        )
        queries = _clustered(rng, 12)
        calls = self._count_calls(index.backend)
        index.search(queries, k=4)
        assert calls == [queries.shape]

    def test_shortlist_quantises_once_per_batch(self, rng):
        index = _routed(_clustered(rng, 150), n_clusters=5, top_p=3)
        queries = _clustered(rng, 12)
        calls = self._count_calls(index.backend)
        index.backend.shortlist(queries, 6)
        assert calls == [queries.shape]

    def test_hoisted_slices_match_per_row_codes(self, rng):
        """The invariant the hoist rests on: slicing the batch code
        table equals encoding the slice."""
        index = _routed(
            _clustered(rng, 80), n_clusters=4, inner="tiered"
        )
        backend = index.backend
        queries = _clustered(rng, 10)
        table = backend._sub_codes(queries)
        for rows in (np.array([0, 3, 7]), np.arange(10)):
            assert np.array_equal(
                table[rows], backend._sub_codes(queries[rows])
            )


def _flatten(state):
    meta, arrays = state
    return meta, arrays["vectors"], arrays["ids"], arrays["alive"]


@pytest.fixture
def no_routing_table(monkeypatch):
    """Fail (instead of stalling) if a centroid LUT is ever built."""

    def refuse(*args):
        raise AssertionError("a centroid routing table was built")

    monkeypatch.setattr(routing, "metric_element_lut", refuse)


class TestOneCluster:
    """A one-centroid index skips the centroid pass: every row and
    query belongs to cluster 0, so no ``4**bits`` routing table is ever
    built and the width limit does not apply."""

    def test_training_assigns_without_scoring(self, rng, no_routing_table):
        vectors = _clustered(rng, 50)
        (centroid,) = train_centroids(vectors, 1, BankConfig("hamming", 2))
        assert np.array_equal(
            centroid, np.rint(vectors.mean(axis=0)).astype(int)
        )

    @pytest.mark.parametrize("bits", [15, 16])
    def test_wide_tiered_routed_index_matches_exact(
        self, bits, no_routing_table
    ):
        """End to end at widths a multi-cluster index refuses: a full
        refine over one cluster is an exact search."""
        rng = np.random.default_rng(bits)
        stored = rng.integers(0, 1 << bits, size=(40, 4))
        stored[0] = (1 << bits) - 1
        queries = rng.integers(0, 1 << bits, size=(6, 4))
        indexes = [
            FerexIndex(dims=4, metric="manhattan", bits=bits, **kwargs)
            for kwargs in (
                {"backend": "exact"},
                {
                    "backend": "routed",
                    "backend_options": {
                        "n_clusters": 1,
                        "inner": "tiered",
                        "refine_factor": 1000,
                    },
                },
            )
        ]
        for index in indexes:
            index.add(stored[:30])
            index.remove([3, 11])
            index.add(stored[30:])
        expected, result = (index.search(queries, k=5) for index in indexes)
        np.testing.assert_array_equal(result.ids, expected.ids)
        np.testing.assert_array_equal(result.distances, expected.distances)
        assert indexes[1].last_routing["n_clusters"] == 1


@pytest.mark.usefixtures("no_routing_table")
class TestWidthGuard:
    """A multi-cluster routed index wider than ``MAX_ROUTED_BITS``
    raises before its routing table (seconds to hours to build) is
    attempted, and before any state moves."""

    WIDE = routing.MAX_ROUTED_BITS + 1

    def _data(self, rows):
        rng = np.random.default_rng(self.WIDE)
        return rng.integers(0, 1 << self.WIDE, size=(rows, 4))

    def test_first_add_raises_and_leaves_index_empty(self):
        index = FerexIndex(
            dims=4,
            metric="manhattan",
            bits=self.WIDE,
            backend="routed",
            backend_options={"n_clusters": 2, "inner": "tiered"},
        )
        with pytest.raises(ValueError, match="n_clusters=1"):
            index.add(self._data(20))
        assert index.ntotal == 0 and index.write_generation == 0
        assert index.backend.centroids is None

    @pytest.mark.parametrize("backend", ["routed", "tiered"])
    def test_reconfigure_routing_raises_before_state_moves(self, backend):
        index = FerexIndex(
            dims=4,
            metric="manhattan",
            bits=self.WIDE,
            backend=backend,
            backend_options={"n_clusters": 1, "inner": "tiered"},
        )
        index.add(self._data(30))
        queries = self._data(3)
        before = index.search(queries, k=4)
        generation = index.write_generation
        knobs = index.backend.top_p, index.backend.n_clusters
        with pytest.raises(ValueError, match="n_clusters=1"):
            index.reconfigure_routing(top_p=3, n_clusters=4)
        assert index.write_generation == generation
        assert (index.backend.top_p, index.backend.n_clusters) == knobs
        assert index.backend.n_trained_clusters == 1
        after = index.search(queries, k=4)
        np.testing.assert_array_equal(after.ids, before.ids)
        np.testing.assert_array_equal(after.distances, before.distances)
