"""SearchBackend implementations: protocol, ordering, GPU estimates."""

import numpy as np
import pytest

from repro.index import (
    BACKENDS,
    BankConfig,
    ExactBackend,
    FerexBackend,
    FerexIndex,
    GPUBackend,
    SearchBackend,
)

HAMMING_2 = BankConfig("hamming", 2)
MANHATTAN_2 = BankConfig("manhattan", 2)


class TestProtocol:
    def test_all_implementations_satisfy_protocol(self):
        for cls in (ExactBackend, GPUBackend, FerexBackend):
            assert isinstance(cls(HAMMING_2, 4), SearchBackend)

    def test_registry_names(self):
        assert set(BACKENDS) == {
            "ferex",
            "exact",
            "gpu",
            "tiered",
            "routed",
        }
        for name, cls in BACKENDS.items():
            assert cls.name == name

    def test_custom_backend_instance_accepted(self, rng):
        backend = ExactBackend(HAMMING_2, 8)
        index = FerexIndex(dims=8, backend=backend)
        assert index.backend is backend
        index.add(rng.integers(0, 4, size=(10, 8)))
        ids, _ = index.search(rng.integers(0, 4, size=(2, 8)), k=2)
        assert ids.shape == (2, 2)


class TestExactBackend:
    def test_orders_by_distance_then_position(self):
        backend = ExactBackend(MANHATTAN_2, 2)
        backend.add(np.array([[3, 3], [0, 1], [0, 1], [0, 0]]))
        positions, distances = backend.search(np.array([[0, 0]]), k=4)
        assert positions[0].tolist() == [3, 1, 2, 0]
        assert distances[0].tolist() == [0.0, 1.0, 1.0, 6.0]

    def test_deactivate_excludes_position(self):
        backend = ExactBackend(MANHATTAN_2, 2)
        backend.add(np.array([[0, 0], [0, 1]]))
        backend.deactivate(np.array([0]))
        positions, _ = backend.search(np.array([[0, 0]]), k=1)
        assert positions[0, 0] == 1

    def test_rebuild_resets_positions(self):
        backend = ExactBackend(MANHATTAN_2, 2)
        backend.add(np.array([[0, 0], [3, 3]]))
        backend.deactivate(np.array([0]))
        backend.rebuild(np.array([[1, 1]]))
        positions, _ = backend.search(np.array([[1, 1]]), k=1)
        assert positions[0, 0] == 0


class TestGPUBackend:
    def test_search_attaches_roofline_estimate(self, rng):
        index = FerexIndex(dims=16, metric="euclidean", backend="gpu")
        index.add(rng.integers(0, 4, size=(32, 16)))
        assert index.backend.last_estimate is None
        index.search(rng.integers(0, 4, size=(100, 16)), k=1)
        estimate = index.backend.last_estimate
        assert estimate is not None
        assert estimate.time > 0 and estimate.energy > 0
        assert estimate.bound in ("memory", "compute")

    @pytest.mark.parametrize("bits", [1, 2, 3])
    @pytest.mark.parametrize("metric", ["hamming", "manhattan", "euclidean"])
    def test_winners_match_exact(self, rng, metric, bits):
        """Ids and distances equal the exact backend's, through
        tombstones and an add after the first search."""
        stored = rng.integers(0, 1 << bits, size=(60, 8))
        queries = rng.integers(0, 1 << bits, size=(10, 8))
        answers = []
        for backend in ("gpu", "exact"):
            index = FerexIndex(
                dims=8, metric=metric, bits=bits, backend=backend
            )
            index.add(stored[:40])
            index.remove([3, 17, 18])
            first = index.search(queries, k=5)
            index.add(stored[40:])
            index.remove([41])
            answers.append((first, index.search(queries, k=5)))
        for g, e in zip(*answers):
            assert np.array_equal(g.ids, e.ids)
            assert np.array_equal(g.distances, e.distances)


class TestFerexBackendSharding:
    def test_row_level_incremental_program_used(self, rng):
        """Adds that fit existing capacity must go through the
        crossbar's row-slice write, not a full re-program."""
        backend = FerexBackend(HAMMING_2, 8, bank_rows=32)
        backend.add(rng.integers(0, 4, size=(8, 8)))
        engine = backend.engines[0]
        # Grow the array once so there is spare capacity...
        backend.add(rng.integers(0, 4, size=(4, 8)))
        engine = backend.engines[0]
        rows_before = engine.array.rows
        generation = engine.array.write_generation
        # ...then a small add must reuse it: same array object, exactly
        # one more write generation (one program_rows call).
        backend.add(rng.integers(0, 4, size=(2, 8)))
        assert backend.engines[0].array is engine.array
        assert engine.array.rows == rows_before
        assert engine.array.write_generation == generation + 1

    def test_search_masks_unwritten_capacity(self, rng):
        """Erased rows leak less than any programmed row; they must
        never win the LTA."""
        backend = FerexBackend(HAMMING_2, 8, bank_rows=32)
        stored = rng.integers(0, 4, size=(6, 8))
        backend.add(stored)
        # Force spare allocated capacity beyond the written rows.
        backend.add(rng.integers(0, 4, size=(3, 8)))
        assert backend.engines[0].array.rows > 9
        positions, _ = backend.search(rng.integers(0, 4, size=(20, 8)), 3)
        assert positions.max() < 9

    @pytest.mark.parametrize("c", [4, 5, 7])
    def test_shortlist_clamps_to_live_rows_like_search(self, rng, c):
        """Regression: ``shortlist`` with ``c`` above the live count
        returned tombstoned and never-written positions (their masked
        ``+inf`` readings were nominated).  Seven rows over a full bank
        and a part-filled one whose array has a spare erased row, two
        tombstoned: five live, so ``c`` sits below, at and above the
        live count."""
        backend = FerexBackend(HAMMING_2, 8, bank_rows=4)
        for n in (5, 1, 1):
            backend.add(rng.integers(0, 4, size=(n, 8)))
        assert backend.engines[1].array.rows == 4
        assert backend._banks[1].written == 3
        backend.deactivate(np.array([1, 4]))
        queries = rng.integers(0, 4, size=(7, 8))
        expected, _ = backend.search(queries, c)
        assert expected.shape == (7, min(c, 5))
        assert not np.isin(expected, [1, 4]).any()
        np.testing.assert_array_equal(backend.shortlist(queries, c), expected)
