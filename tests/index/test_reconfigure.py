"""Online `reconfigure()`: re-voltaging a populated index at a new
(metric, bits) must be bit-identical to a fresh index built at the
target config from the same vectors — the acceptance property of the
reconfigurability refactor."""

import numpy as np
import pytest

from repro.core import BankConfig
from repro.index import ExactBackend, FerexIndex

DIMS = 6
BANK_ROWS = 8
SEED = 5

#: Every target the property sweeps: metrics x bits {1, 2, 3}.
TARGETS = [
    (metric, bits)
    for metric in ("hamming", "manhattan", "euclidean")
    for bits in (1, 2, 3)
]


def binary_vectors(n=24, seed=101):
    """1-bit codes: valid at every target alphabet, so one stored set
    exercises all reconfigure directions."""
    return np.random.default_rng(seed).integers(0, 2, size=(n, DIMS))


def binary_queries(n=10, seed=102):
    return np.random.default_rng(seed).integers(0, 2, size=(n, DIMS))


def build(metric="hamming", bits=2, backend="ferex", seed=SEED):
    return FerexIndex(
        dims=DIMS,
        metric=metric,
        bits=bits,
        backend=backend,
        bank_rows=BANK_ROWS,
        seed=seed if backend == "ferex" else None,
    )


def assert_bit_identical(a, b, queries, k=4):
    ra, rb = a.search(queries, k=k), b.search(queries, k=k)
    np.testing.assert_array_equal(ra.ids, rb.ids)
    np.testing.assert_array_equal(ra.distances, rb.distances)


@pytest.mark.parametrize("metric,bits", TARGETS)
class TestReconfigureProperty:
    def test_matches_fresh_index(self, metric, bits):
        vectors = binary_vectors()
        index = build()
        index.add(vectors)
        index.reconfigure(bits=bits, metric=metric)
        assert index.config == BankConfig(metric, bits)

        fresh = build(metric=metric, bits=bits)
        fresh.add(vectors)
        assert_bit_identical(index, fresh, binary_queries())

    def test_matches_fresh_index_after_remove(self, metric, bits):
        vectors = binary_vectors()
        index = build()
        index.add(vectors)
        index.remove([2, 9, 17])
        index.reconfigure(bits=bits, metric=metric)

        fresh = build(metric=metric, bits=bits)
        fresh.add(vectors)
        fresh.remove([2, 9, 17])
        assert_bit_identical(index, fresh, binary_queries())

    def test_matches_fresh_index_after_remove_and_compact(
        self, metric, bits
    ):
        vectors = binary_vectors()
        index = build()
        index.add(vectors)
        index.remove([0, 5, 23])
        index.compact()
        index.reconfigure(bits=bits, metric=metric)

        # Compaction reassigned positions: the equivalent fresh build
        # stores the compacted live set under the surviving ids.
        live = np.setdiff1d(np.arange(len(vectors)), [0, 5, 23])
        fresh = build(metric=metric, bits=bits)
        fresh.add(vectors[live], ids=live)
        assert_bit_identical(index, fresh, binary_queries())


class TestReconfigureSemantics:
    def test_generation_and_fingerprints_move(self):
        index = build()
        index.add(binary_vectors())
        generation = index.write_generation
        rolling = index.fingerprint()
        content = index.content_fingerprint()
        index.reconfigure(bits=1)
        assert index.write_generation == generation + 1
        assert index.fingerprint() != rolling
        assert index.content_fingerprint() != content

    def test_narrowing_checks_stored_codes(self):
        index = build(bits=2)
        index.add(np.full((4, DIMS), 3, dtype=int))  # needs 2 bits
        with pytest.raises(ValueError, match="exceed"):
            index.reconfigure(bits=1)
        # Atomic: nothing changed.
        assert index.config == BankConfig("hamming", 2)
        assert index.ntotal == 4

    def test_widening_always_allowed(self):
        index = build(bits=1)
        index.add(binary_vectors())
        index.reconfigure(bits=3)
        # The wider alphabet admits wider codes now.
        index.add(np.full((1, DIMS), 7, dtype=int))
        assert index.ntotal == 25

    def test_exact_backend_reconfigures_too(self):
        vectors = binary_vectors()
        index = build(backend="exact")
        index.add(vectors)
        index.reconfigure(metric="euclidean", bits=2)
        fresh = build(metric="euclidean", bits=2, backend="exact")
        fresh.add(vectors)
        assert_bit_identical(index, fresh, binary_queries())

    def test_caller_supplied_backend_refused(self):
        index = FerexIndex(
            dims=DIMS, backend=ExactBackend(BankConfig("hamming", 2), DIMS)
        )
        index.add(binary_vectors())
        with pytest.raises(ValueError, match="caller-supplied"):
            index.reconfigure(bits=1)

    def test_read_only_replica_refused(self):
        index = build()
        index.add(binary_vectors())
        meta, arrays = index.export_state()
        replica = FerexIndex.from_state(meta, **arrays, read_only=True)
        with pytest.raises(ValueError, match="read-only"):
            replica.reconfigure(bits=1)

    def test_mutation_after_reconfigure_keeps_parity(self):
        vectors = binary_vectors()
        index = build()
        index.add(vectors[:16])
        index.reconfigure(metric="manhattan", bits=1)
        index.add(vectors[16:])

        fresh = build(metric="manhattan", bits=1)
        fresh.add(vectors)
        assert_bit_identical(index, fresh, binary_queries())


class TestPerBankReconfigure:
    def test_subset_yields_heterogeneous_fleet(self):
        index = build(bits=2)
        index.add(np.random.default_rng(7).integers(0, 4, size=(24, DIMS)))
        assert index.n_banks == 3
        index.reconfigure(bits=1, banks=[1])
        assert index.bank_configs == (
            BankConfig("hamming", 2),
            BankConfig("hamming", 1),
            BankConfig("hamming", 2),
        )
        # Index-level alphabet (and validation) did not move.
        assert index.config == BankConfig("hamming", 2)
        result = index.search(
            np.random.default_rng(8).integers(0, 4, size=(5, DIMS)), k=3
        )
        assert result.ids.shape == (5, 3)

    def test_coarse_bank_serves_quantized_codes(self):
        # A single bank re-voltaged at 1 bit answers exactly like a
        # fresh 1-bit index holding the top-bit codes.
        rng = np.random.default_rng(9)
        vectors = rng.integers(0, 4, size=(10, DIMS))
        queries = rng.integers(0, 4, size=(6, DIMS))
        index = FerexIndex(
            dims=DIMS, bits=2, bank_rows=16, seed=SEED
        )
        index.add(vectors)
        index.reconfigure(bits=1, banks=[0])

        coarse = FerexIndex(dims=DIMS, bits=1, bank_rows=16, seed=SEED)
        coarse.add(vectors >> 1)
        expected = coarse.search(queries >> 1, k=3)
        actual = index.search(queries, k=3)
        np.testing.assert_array_equal(actual.ids, expected.ids)
        np.testing.assert_array_equal(actual.distances, expected.distances)

    def test_bad_ordinals_rejected(self):
        index = build()
        index.add(binary_vectors())
        with pytest.raises(ValueError, match="outside"):
            index.reconfigure(bits=1, banks=[99])
        with pytest.raises(ValueError, match="duplicate"):
            index.reconfigure(bits=1, banks=[0, 0])

    def test_backend_level_full_revoltage_survives_later_adds(self):
        """Regression: a whole-backend `reconfigure_banks` moves the
        storage alphabet, so retained codes must stay interpretable —
        a later add that re-allocates the bank must not re-quantise
        them a second time."""
        from repro.index import FerexBackend

        rng = np.random.default_rng(13)
        backend = FerexBackend(BankConfig("manhattan", 3), DIMS, bank_rows=16)
        backend.add(rng.integers(0, 2, size=(4, DIMS)))
        backend.reconfigure_banks(BankConfig("manhattan", 1))
        assert backend.config == BankConfig("manhattan", 1)
        # Triggers the geometric re-allocation branch (re-writes the
        # retained vectors through the new alphabet).
        backend.add(rng.integers(0, 2, size=(8, DIMS)))
        positions, _ = backend.search(
            rng.integers(0, 2, size=(3, DIMS)), k=2
        )
        assert positions.shape == (3, 2)

    def test_backend_level_narrowing_checks_codes(self):
        from repro.index import FerexBackend

        backend = FerexBackend(BankConfig("manhattan", 3), DIMS, bank_rows=16)
        backend.add(np.full((4, DIMS), 7, dtype=int))
        with pytest.raises(ValueError, match="exceed"):
            backend.reconfigure_banks(BankConfig("manhattan", 1))
        # Atomic: nothing moved.
        assert backend.config == BankConfig("manhattan", 3)

    def test_non_ferex_backend_rejected(self):
        index = build(backend="exact")
        index.add(binary_vectors())
        with pytest.raises(ValueError, match="per-bank"):
            index.reconfigure(bits=1, banks=[0])

    def test_compact_revoltages_to_homogeneous(self):
        """Documented semantics: compaction is a fresh build of the
        live set, so positional per-bank tiers reset to the index-level
        config (re-apply the partial reconfigure afterwards to keep a
        mixed fleet)."""
        index = build(bits=2)
        index.add(np.random.default_rng(6).integers(0, 4, size=(24, DIMS)))
        index.reconfigure(bits=1, banks=[0])
        index.remove([5])
        index.compact()
        assert all(c == index.config for c in index.bank_configs)

    def test_full_reconfigure_heals_heterogeneity(self):
        vectors = binary_vectors()
        index = build(bits=2)
        index.add(vectors)
        index.reconfigure(bits=1, banks=[0, 2])
        index.reconfigure(bits=1)  # whole-index: homogeneous again
        assert all(
            c == BankConfig("hamming", 1) for c in index.bank_configs
        )
        fresh = build(bits=1)
        fresh.add(vectors)
        assert_bit_identical(index, fresh, binary_queries())
