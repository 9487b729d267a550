"""`BankConfig`: the first-class (metric, bits) value object, its eager
validation, and how it threads through engine / backend / index."""

import numpy as np
import pytest

from repro.core import BankConfig, FeReX, quantize_codes
from repro.core.distance import get_metric
from repro.index import ExactBackend, FerexIndex


class TestBankConfig:
    def test_unknown_metric_fails_fast(self):
        with pytest.raises(ValueError, match="unknown metric"):
            BankConfig("cosine", 2)

    def test_known_metrics_listed_in_error(self):
        with pytest.raises(ValueError, match="hamming"):
            BankConfig("bogus", 2)

    def test_bits_validated(self):
        with pytest.raises(ValueError, match="bits"):
            BankConfig("hamming", 0)

    def test_metric_instance_accepted(self):
        config = BankConfig(get_metric("manhattan"), 3)
        assert config.metric_name == "manhattan"
        assert config.resolved.name == "manhattan"
        assert config.n_values == 8

    def test_equality_is_semantic(self):
        # A name and the instance it resolves to are the same config.
        assert BankConfig("hamming", 2) == BankConfig(
            get_metric("hamming"), 2
        )
        assert BankConfig("hamming", 2) != BankConfig("hamming", 1)
        assert BankConfig("hamming", 2) != BankConfig("manhattan", 2)
        assert hash(BankConfig("hamming", 2)) == hash(
            BankConfig(get_metric("hamming"), 2)
        )

    def test_dict_round_trip(self):
        config = BankConfig("euclidean", 3)
        assert BankConfig.from_dict(config.as_dict()) == config

    def test_non_metric_rejected(self):
        with pytest.raises(ValueError, match="DistanceMetric"):
            BankConfig(42, 2)


class TestQuantizeCodes:
    def test_narrowing_keeps_top_bits(self):
        codes = np.arange(8)
        assert quantize_codes(codes, 3, 1).tolist() == [
            0, 0, 0, 0, 1, 1, 1, 1,
        ]
        assert quantize_codes(codes, 3, 2).tolist() == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]

    def test_widening_and_equal_are_identity(self):
        codes = np.arange(4)
        assert quantize_codes(codes, 2, 2) is codes
        assert quantize_codes(codes, 2, 3) is codes


class TestConfigThreading:
    def test_engine_carries_config(self):
        engine = FeReX(metric="manhattan", bits=3, dims=4)
        assert engine.config == BankConfig("manhattan", 3)
        # A ready config wins over the loose pair.
        engine = FeReX(dims=4, config=BankConfig("euclidean", 2))
        assert engine.metric.name == "euclidean"
        assert engine.bits == 2
        assert engine.n_values == 4

    def test_index_validates_metric_eagerly(self):
        # Before the refactor this only blew up at the first add (the
        # ferex backend builds its engines lazily).
        with pytest.raises(ValueError, match="unknown metric"):
            FerexIndex(dims=4, metric="bogus")

    def test_index_exposes_config(self):
        index = FerexIndex(dims=4, metric="hamming", bits=2, bank_rows=4)
        assert index.config == BankConfig("hamming", 2)
        assert index.backend.config == index.config
        index.add(np.zeros((6, 4), dtype=int))
        assert index.bank_configs == (index.config, index.config)
        for engine in index.backend.engines:
            assert engine.config == index.config

    def test_index_accepts_config_object(self):
        index = FerexIndex(dims=4, config=BankConfig("manhattan", 3))
        assert index.metric == "manhattan"
        assert index.bits == 3

    def test_backend_takes_config_and_dims(self):
        backend = ExactBackend(BankConfig("hamming", 2), dims=6)
        assert backend.config == BankConfig("hamming", 2)
        assert backend.dims == 6
        # The loose (metric, bits, dims) form is gone.
        with pytest.raises(TypeError):
            ExactBackend("hamming", 2, 6)
