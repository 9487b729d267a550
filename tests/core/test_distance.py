"""Distance metrics: definitions, metric axioms, vectorised agreement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import distance
from repro.core.distance import (
    DistanceMetric,
    available_metrics,
    get_metric,
    register_metric,
)


HAMMING = get_metric("hamming")
MANHATTAN = get_metric("manhattan")
EUCLIDEAN = get_metric("euclidean")


class TestDefinitions:
    def test_hamming_counts_bit_mismatches(self):
        assert HAMMING.element(0b00, 0b11, 2) == 2
        assert HAMMING.element(0b01, 0b11, 2) == 1
        assert HAMMING.element(0b101, 0b010, 3) == 3

    def test_manhattan_absolute_difference(self):
        assert MANHATTAN.element(0, 3, 2) == 3
        assert MANHATTAN.element(3, 1, 2) == 2

    def test_euclidean_squared_difference(self):
        assert EUCLIDEAN.element(0, 3, 2) == 9
        assert EUCLIDEAN.element(1, 3, 2) == 4

    def test_registry_contains_paper_metrics(self):
        names = available_metrics()
        for name in ("hamming", "manhattan", "euclidean"):
            assert name in names

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            get_metric("chebyshev")

    def test_register_custom_metric(self):
        metric = DistanceMetric("test-max", lambda s, t, b: max(s, t))
        register_metric(metric)
        assert get_metric("test-max") is metric

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            HAMMING.element(4, 0, 2)
        with pytest.raises(ValueError):
            HAMMING.element(0, -1, 2)


class TestVectorDistance:
    def test_vector_is_elementwise_sum(self):
        q = [0, 1, 2, 3]
        s = [3, 1, 0, 3]
        expected = sum(
            MANHATTAN.element(a, b, 2) for a, b in zip(q, s)
        )
        assert MANHATTAN.vector(q, s, 2) == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HAMMING.vector([0, 1], [0, 1, 2], 2)


class TestMetricAxioms:
    @pytest.mark.parametrize(
        "metric", [HAMMING, MANHATTAN, EUCLIDEAN]
    )
    def test_identity(self, metric):
        for v in range(8):
            assert metric.element(v, v, 3) == 0

    @pytest.mark.parametrize(
        "metric", [HAMMING, MANHATTAN, EUCLIDEAN]
    )
    def test_symmetry(self, metric):
        for a in range(8):
            for b in range(8):
                assert metric.element(a, b, 3) == metric.element(b, a, 3)

    @pytest.mark.parametrize("metric", [HAMMING, MANHATTAN])
    def test_triangle_inequality(self, metric):
        """Hamming and L1 are true metrics (squared L2 is not)."""
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    assert metric.element(a, c, 3) <= (
                        metric.element(a, b, 3) + metric.element(b, c, 3)
                    )

    @pytest.mark.parametrize(
        "metric", [HAMMING, MANHATTAN, EUCLIDEAN]
    )
    def test_positivity(self, metric):
        for a in range(8):
            for b in range(8):
                if a != b:
                    assert metric.element(a, b, 3) > 0


class TestPairwise:
    @pytest.mark.parametrize("narrow", [False, True])
    @pytest.mark.parametrize(
        "n,n_stored,dims",
        [
            (5, 6, 7),  # all stored rows in one block, 1 query each
            (5, 5, 3),  # query axis straddles the budget (4 + 1 rows)
            (3, 30, 3),  # stored axis straddles it (21 + 9 rows)
            (9, 50, 3),  # many blocks on both axes
        ],
    )
    @pytest.mark.parametrize("bits", [1, 2, 3, 8, 16])
    @pytest.mark.parametrize(
        "metric", [HAMMING, MANHATTAN, EUCLIDEAN]
    )
    def test_matches_scalar_path(
        self, metric, bits, n, n_stored, dims, narrow, rng, monkeypatch
    ):
        """Blocked scoring equals the element-by-element sum.  The
        budget is lowered to 64 elements so the listed shapes straddle
        it; ``narrow`` feeds the smallest unsigned dtype holding the
        alphabet, which must not wrap on subtraction."""
        monkeypatch.setattr(distance, "PAIRWISE_BLOCK_ELEMENTS", 64)
        queries = rng.integers(0, 1 << bits, size=(n, dims))
        stored = rng.integers(0, 1 << bits, size=(n_stored, dims))
        stored[0] = (1 << bits) - 1  # the widest code is always present
        dtype = np.min_scalar_type((1 << bits) - 1) if narrow else np.int64
        table = metric.pairwise(
            queries.astype(dtype), stored.astype(dtype), bits
        )
        assert table.dtype == np.int64
        for i in range(n):
            for j in range(n_stored):
                assert table[i, j] == metric.vector(
                    queries[i], stored[j], bits
                )

    def test_shape(self, rng):
        q = rng.integers(0, 4, size=(3, 5))
        s = rng.integers(0, 4, size=(9, 5))
        assert HAMMING.pairwise(q, s, 2).shape == (3, 9)

    def test_dim_mismatch_rejected(self, rng):
        q = rng.integers(0, 4, size=(3, 5))
        s = rng.integers(0, 4, size=(3, 6))
        with pytest.raises(ValueError):
            HAMMING.pairwise(q, s, 2)

    def test_range_check(self, rng):
        q = np.array([[5]])
        s = np.array([[0]])
        with pytest.raises(ValueError):
            HAMMING.pairwise(q, s, 2)

    def test_generic_fallback_used_for_custom_metric(self):
        metric = DistanceMetric(
            "test-absmax", lambda s, t, b: abs(s - t) % 3
        )
        q = np.array([[0, 1], [2, 3]])
        s = np.array([[3, 3]])
        table = metric.pairwise(q, s, 2)
        assert table[0, 0] == metric.vector([0, 1], [3, 3], 2)


class TestPropertyBased:
    @given(
        a=st.integers(min_value=0, max_value=15),
        b=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_hamming_bounded_by_bits(self, a, b):
        assert 0 <= HAMMING.element(a, b, 4) <= 4

    @given(
        a=st.integers(min_value=0, max_value=15),
        b=st.integers(min_value=0, max_value=15),
    )
    @settings(max_examples=100, deadline=None)
    def test_euclidean_is_manhattan_squared_for_elements(self, a, b):
        assert EUCLIDEAN.element(a, b, 4) == MANHATTAN.element(a, b, 4) ** 2
