"""Kernel-path parity: every search route returns the same answer.

After the quantized-kernel refactor, serial, batch, flat-index,
shortlist and tiered searches all reduce the *same* integer LUT, so
their agreement is structural — and this suite pins it across metrics x
bit widths x tombstones, including across an online ``reconfigure()``.
The kernel must actually be engaged (``quantized_kernel()`` non-None):
a silent fall-back to the float path would make these assertions pass
without testing the new hot loop.
"""

import zlib

import numpy as np
import pytest

from repro.core.distance import get_metric
from repro.core.engine import FeReX
from repro.index import FerexIndex

CONFIGS = [
    (metric, bits)
    for metric in ("hamming", "manhattan", "euclidean")
    for bits in (1, 2, 3)
]


def _rng(metric, bits, salt=""):
    return np.random.default_rng(
        zlib.crc32(f"{metric}/{bits}/{salt}".encode())
    )


def _flat_index(
    metric, bits, stored, tombstones, backend="ferex", options=None
):
    index = FerexIndex(
        dims=stored.shape[1],
        metric=metric,
        bits=bits,
        backend=backend,
        bank_rows=8,
        backend_options=options,
    )
    index.add(stored)
    if tombstones:
        index.remove([2, 9, 17])
    return index


@pytest.mark.parametrize("metric,bits", CONFIGS)
class TestEnginePathParity:
    def test_serial_batch_and_kbatch_are_bit_identical(self, metric, bits):
        rng = _rng(metric, bits)
        hi = 1 << bits
        engine = FeReX(metric=metric, bits=bits, dims=10)
        engine.program(rng.integers(0, hi, size=(17, 10)))
        assert engine.quantized_kernel() is not None
        queries = rng.integers(0, hi, size=(12, 10))

        batch = engine.search_batch(queries)
        kbatch = engine.search_k_batch(queries, k=4)
        for i, query in enumerate(queries):
            serial = engine.search(query)
            assert serial.winner == batch.winners[i]
            assert np.array_equal(
                serial.hardware_distances, batch.row_units[i]
            )
            assert np.array_equal(
                serial.hardware_distances, kbatch.row_units[i]
            )
            serial_k = engine.search_k(query, k=4)
            assert np.array_equal(
                [r.winner for r in serial_k], kbatch.winners[i]
            )

    def test_distance_readings_are_exact_metric_distances(
        self, metric, bits
    ):
        """The quantized readout must still round to the true integer
        distance — the kernel changed the arithmetic, not the answer."""
        rng = _rng(metric, bits, "readings")
        hi = 1 << bits
        stored = rng.integers(0, hi, size=(11, 9))
        engine = FeReX(metric=metric, bits=bits, dims=9)
        engine.program(stored)
        queries = rng.integers(0, hi, size=(8, 9))
        readings = np.rint(engine.search_batch(queries).row_units)
        table = get_metric(metric).pairwise(queries, stored, bits)
        assert np.array_equal(readings.astype(int), table)


@pytest.mark.parametrize("metric,bits", CONFIGS)
@pytest.mark.parametrize("tombstones", [False, True])
class TestIndexPathParity:
    def test_flat_batch_equals_per_query(self, metric, bits, tombstones):
        rng = _rng(metric, bits, f"flat/{tombstones}")
        hi = 1 << bits
        stored = rng.integers(0, hi, size=(30, 12))
        index = _flat_index(metric, bits, stored, tombstones)
        for engine in index.backend.engines:
            assert engine.quantized_kernel() is not None
        queries = rng.integers(0, hi, size=(10, 12))

        batch = index.search(queries, k=3)
        for i, query in enumerate(queries):
            one = index.search(query[None, :], k=3)
            assert np.array_equal(one.ids[0], batch.ids[i])
            assert np.array_equal(one.distances[0], batch.distances[i])

    def test_shortlist_equals_flat_winners(self, metric, bits, tombstones):
        """The shortlist (one readout per bank) must emit exactly the
        sequence the k LTA rounds of ``search`` produce."""
        rng = _rng(metric, bits, f"short/{tombstones}")
        hi = 1 << bits
        stored = rng.integers(0, hi, size=(30, 12))
        index = _flat_index(metric, bits, stored, tombstones)
        queries = rng.integers(0, hi, size=(10, 12))
        k = 5

        positions, _ = index.backend.search(queries, k)
        shortlist = index.backend.shortlist(queries, k)
        assert np.array_equal(shortlist, positions)

    def test_tiered_equals_exact_when_shortlist_covers(
        self, metric, bits, tombstones
    ):
        """With a refine factor covering the whole live set the tiered
        path must reproduce the exact backend bit-for-bit: the rescore
        is exact and the (distance, position) order matches."""
        rng = _rng(metric, bits, f"tiered/{tombstones}")
        hi = 1 << bits
        stored = rng.integers(0, hi, size=(30, 12))
        index = _flat_index(
            metric,
            bits,
            stored,
            tombstones,
            backend="tiered",
            options={"refine_factor": 64},
        )
        exact = FerexIndex(
            dims=12, metric=metric, bits=bits, backend="exact"
        )
        exact.add(stored)
        if tombstones:
            exact.remove([2, 9, 17])
        queries = rng.integers(0, hi, size=(10, 12))

        tiered = index.search(queries, k=3)
        reference = exact.search(queries, k=3)
        assert np.array_equal(tiered.ids, reference.ids)
        assert np.array_equal(tiered.distances, reference.distances)


class TestReconfigureParity:
    @pytest.mark.parametrize("metric", ["hamming", "manhattan", "euclidean"])
    @pytest.mark.parametrize("target_bits", [1, 2, 3])
    def test_kernel_paths_stay_identical_after_reconfigure(
        self, metric, target_bits
    ):
        """Online re-voltage: the rebuilt banks must re-engage the
        kernel and every path must still agree."""
        rng = _rng(metric, target_bits, "reconfig")
        stored = rng.integers(0, 2, size=(30, 12))  # fits every width
        index = _flat_index(metric, 2, stored, tombstones=True)
        index.reconfigure(bits=target_bits)
        for engine in index.backend.engines:
            assert engine.quantized_kernel() is not None
        queries = rng.integers(0, 2, size=(8, 12))

        batch = index.search(queries, k=3)
        for i, query in enumerate(queries):
            one = index.search(query[None, :], k=3)
            assert np.array_equal(one.ids[0], batch.ids[i])
            assert np.array_equal(one.distances[0], batch.distances[i])
        positions, _ = index.backend.search(queries, 4)
        assert np.array_equal(
            index.backend.shortlist(queries, 4), positions
        )
