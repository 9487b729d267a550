"""The compiled kernel covers the programmed row prefix only.

Rows past the last one holding a programmed level are erased; on an
ideal array each scores one exact integer per query, which
:class:`repro.core.kernel.QuantizedKernel` broadcasts into the tail.
Every case here compares the full-width readings exactly against a
:class:`LUTKernel` compiled over *all* rows at the same quantum — the
kernel as it was before the prefix cut — and checks that the quantum
itself is the one the all-rows table selects once the engine's store
alphabet is covered too.
"""

import numpy as np
import pytest

from repro.core.config import BankConfig
from repro.core.engine import FeReX
from repro.core.kernel import LUTKernel, select_quantum
from repro.devices.cell import compile_current_lut
from repro.index.backends import FerexBackend

DIMS = 6
CONFIGS = [("hamming", 1), ("manhattan", 2), ("euclidean", 3)]


def _all_rows_reference(array):
    """(quantum, LUTKernel) compiled over every row of ``array``, at the
    quantum of its symbols plus the registered store alphabet."""
    sl, dl = array._alphabet
    k = array.cell_fanout
    n_values = sl.shape[0]
    state = array.levels.reshape(array.rows * array.cells, k)
    _, first, codes = np.unique(
        state, axis=0, return_index=True, return_inverse=True
    )

    def currents(levels):
        return compile_current_lut(
            sl.reshape(n_values, array.cells, k)[:, 0, :],
            dl.reshape(n_values, array.cells, k)[:, 0, :],
            array._vth_lut[levels],
            array.tech,
        )

    raw = currents(state[first])
    peak = max(
        np.abs(raw).max(), np.abs(currents(array._store_levels)).max()
    )
    quantum = select_quantum(
        float(peak), array.cells, array.tech.cell.unit_current
    )
    lut = np.rint(raw / quantum).astype(np.int64)
    return quantum, LUTKernel(codes.reshape(array.rows, array.cells), lut)


def _assert_matches_all_rows(engine, queries, prefix):
    array = engine.array
    compiled = engine.quantized_kernel()
    assert compiled is not None
    assert compiled.codes.shape == (prefix, array.cells)
    quantum, reference = _all_rows_reference(array)
    assert compiled.quantum == quantum
    scores = reference.scores(queries)
    assert np.array_equal(compiled.row_scores(queries), scores)
    assert np.array_equal(compiled.row_currents(queries), scores * quantum)
    units = scores * quantum / array.tech.cell.unit_current
    assert np.array_equal(engine.readout_batch(queries), units)
    return units


def _draw(rng, bits, n):
    return rng.integers(0, 1 << bits, size=(n, DIMS))


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_eight_of_64_rows_written(metric, bits):
    rng = np.random.default_rng(8)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(64)
    engine.write_rows(0, _draw(rng, bits, 8))
    queries = _draw(rng, bits, 5)
    units = _assert_matches_all_rows(engine, queries, 8)
    active = np.arange(64) < 8
    found = engine.search_k_batch(queries, 8, active_rows=active)
    assert np.array_equal(found.row_units, units)
    # The whole erased tail reads one value per query.
    assert np.all(units[:, 8:] == units[:, 8:9])


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_after_a_doubling_reallocation(metric, bits):
    rng = np.random.default_rng(16)
    backend = FerexBackend(BankConfig(metric, bits), dims=DIMS, bank_rows=64)
    backend.add(_draw(rng, bits, 8))
    backend.add(_draw(rng, bits, 1))
    engine = backend.engines[0]
    assert engine.array.rows == 16  # 8 -> 16
    _assert_matches_all_rows(engine, _draw(rng, bits, 5), 9)
    backend.add(_draw(rng, bits, 4))  # incremental, no re-allocation
    _assert_matches_all_rows(engine, _draw(rng, bits, 5), 13)
    backend.add(_draw(rng, bits, 4))
    assert engine.array.rows == 26  # 2 x 13
    _assert_matches_all_rows(engine, _draw(rng, bits, 5), 17)


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_erased_rows_in_and_past_the_prefix(metric, bits):
    """A written row erased again: in the middle it stays compiled (all
    erased codes), as the last programmed row it joins the tail."""
    rng = np.random.default_rng(10)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(32)
    engine.write_rows(0, _draw(rng, bits, 10))
    engine.array.erase_row(3)
    engine.array.erase_row(9)
    units = _assert_matches_all_rows(engine, _draw(rng, bits, 4), 9)
    assert np.array_equal(units[:, 3], units[:, 20])


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_nothing_written(metric, bits):
    rng = np.random.default_rng(0)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(64)
    units = _assert_matches_all_rows(engine, _draw(rng, bits, 3), 0)
    assert np.all(units == units[:, :1])
    empty = engine.readout_batch(np.empty((0, DIMS), dtype=int))
    assert empty.shape == (0, 64)


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_fully_written_array_compiles_every_row(metric, bits):
    rng = np.random.default_rng(1)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.program(_draw(rng, bits, 12))
    _assert_matches_all_rows(engine, _draw(rng, bits, 4), 12)
