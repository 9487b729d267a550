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

    @pytest.mark.parametrize("backend", ["ferex", "exact", "tiered"])
    def test_banks_argument_is_gone(self, backend):
        """Reconfigure moves the whole index; a bank subset is an
        unknown argument, refused before anything mutates."""
        index = build(backend=backend)
        index.add(binary_vectors())
        generation = index.write_generation
        content = index.content_fingerprint()
        with pytest.raises(TypeError, match="banks"):
            index.reconfigure(bits=1, banks=[0])
        assert index.write_generation == generation
        assert index.content_fingerprint() == content
        assert index.config == BankConfig("hamming", 2)


@pytest.mark.parametrize("metric,bits", TARGETS)
def test_every_bank_runs_at_the_index_config(metric, bits):
    """After a whole-index reconfigure, the rebuilt banks and the banks
    later adds open all run at the index config."""
    vectors = binary_vectors()
    index = build()
    index.add(vectors[:20])
    index.reconfigure(bits=bits, metric=metric)
    index.add(vectors[20:])
    config = BankConfig(metric, bits)
    assert index.bank_configs == (config,) * 3
    assert [bank.config for bank in index.backend._banks] == [config] * 3
