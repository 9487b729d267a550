"""A bank's kernel is compiled from the values its engine wrote.

:class:`repro.core.FeReX` compiles each bank's
:class:`repro.core.kernel.QuantizedKernel` as one ``LUTKernel`` over
the stored value codes of the written row prefix (the erased code where
a row is unwritten) and the configuration's value LUT; rows past the
prefix are erased and score one exact integer per query, broadcast into
the tail.  The reference here is the level compile it replaced, over
*all* rows: a row-wise ``np.unique`` of every cell's FeFET level tuple,
a per-symbol current table, and the quantum of the symbols present plus
every value's store levels.  Codes, quantum and full-width scores must
match it exactly.  The kernel must not outlive a write its engine did
not make, and it serves the registered alphabet only.
"""

import numpy as np
import pytest

from repro.core.engine import FeReX
from repro.core.config import BankConfig
from repro.core.kernel import LUTKernel, select_quantum
from repro.devices.cell import compile_current_lut
from repro.index import FerexIndex
from repro.index.backends import FerexBackend

DIMS = 6
PREFIX_CONFIGS = [("hamming", 1), ("manhattan", 2), ("euclidean", 3)]
CONFIGS = [
    (metric, bits)
    for metric in ("hamming", "manhattan", "euclidean")
    for bits in (1, 2, 3)
]


def _level_reference(engine):
    """(quantum, LUTKernel) of the level compile over every row of
    ``engine``'s array, at the quantum of its symbols plus every
    value's store levels."""
    array = engine.array
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
    peak = max(np.abs(raw).max(), np.abs(currents(engine._store_lut)).max())
    quantum = select_quantum(
        float(peak), array.cells, array.tech.cell.unit_current
    )
    lut = np.rint(raw / quantum).astype(np.int64)
    return quantum, LUTKernel(codes.reshape(array.rows, array.cells), lut)


def _assert_matches_reference(engine, queries, prefix):
    """The engine's kernel holds the stored codes of the ``prefix``
    rows and scores exactly what the level reference scores."""
    array = engine.array
    compiled = engine.quantized_kernel()
    assert compiled is not None
    assert not np.any(array.levels[prefix:] >= 0)
    erased = compiled.lut.shape[1] - 1
    assert compiled.erased == erased
    written = engine._row_written[:prefix, None]
    codes = np.where(written, engine.stored[:prefix], erased)
    assert compiled.codes.dtype == np.int64
    assert compiled.codes.shape == (prefix, array.cells)
    assert np.array_equal(compiled.codes, codes)
    quantum, reference = _level_reference(engine)
    assert compiled.quantum == quantum == engine.value_lut()[1]
    scores = reference.scores(queries)
    assert np.array_equal(compiled.row_scores(queries), scores)
    assert np.array_equal(compiled.row_currents(queries), scores * quantum)
    units = scores * quantum / array.tech.cell.unit_current
    assert np.array_equal(engine.readout_batch(queries), units)
    return units


def _draw(rng, bits, n):
    return rng.integers(0, 1 << bits, size=(n, DIMS))


@pytest.mark.parametrize("encoder", ["auto", "constructive"])
@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_engine_banks_compile_the_reference(metric, bits, encoder):
    """Every bank of an index — partial prefixes of a doubling
    allocation, tombstones, then compact — compiles its stored codes
    and scores what the level reference scores."""
    rng = np.random.default_rng(bits * 10 + len(metric))
    index = FerexIndex(
        dims=DIMS, metric=metric, bits=bits, bank_rows=16, encoder=encoder
    )
    queries = _draw(rng, bits, 3)
    for step in ("partial", "tombstones", "compact"):
        if step == "partial":
            index.add(_draw(rng, bits, 21))
        elif step == "tombstones":
            index.remove([0, 5, 17, 20])
        else:
            index.compact()
        index.search(queries, k=2)
        for engine in index.backend.engines:
            written = np.flatnonzero(engine._row_written)
            _assert_matches_reference(engine, queries, written[-1] + 1)


@pytest.mark.parametrize("metric,bits", PREFIX_CONFIGS)
def test_eight_of_64_rows_written(metric, bits):
    rng = np.random.default_rng(8)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(64)
    engine.write_rows(0, _draw(rng, bits, 8))
    queries = _draw(rng, bits, 5)
    units = _assert_matches_reference(engine, queries, 8)
    active = np.arange(64) < 8
    found = engine.search_k_batch(queries, 8, active_rows=active)
    assert np.array_equal(found.row_units, units)
    # The whole erased tail reads one value per query.
    assert np.all(units[:, 8:] == units[:, 8:9])


@pytest.mark.parametrize("metric,bits", PREFIX_CONFIGS)
def test_after_a_doubling_reallocation(metric, bits):
    rng = np.random.default_rng(16)
    backend = FerexBackend(BankConfig(metric, bits), dims=DIMS, bank_rows=64)
    backend.add(_draw(rng, bits, 8))
    backend.add(_draw(rng, bits, 1))
    engine = backend.engines[0]
    assert engine.array.rows == 16  # 8 -> 16
    _assert_matches_reference(engine, _draw(rng, bits, 5), 9)
    backend.add(_draw(rng, bits, 4))  # incremental, no re-allocation
    _assert_matches_reference(engine, _draw(rng, bits, 5), 13)
    backend.add(_draw(rng, bits, 4))
    assert engine.array.rows == 26  # 2 x 13
    _assert_matches_reference(engine, _draw(rng, bits, 5), 17)


@pytest.mark.parametrize("metric,bits", PREFIX_CONFIGS)
def test_unwritten_rows_in_and_past_the_prefix(metric, bits):
    """Rows never written inside the prefix compile as erased codes and
    read exactly like the erased tail."""
    rng = np.random.default_rng(10)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(32)
    engine.write_rows(0, _draw(rng, bits, 3))
    engine.write_rows(4, _draw(rng, bits, 5))
    units = _assert_matches_reference(engine, _draw(rng, bits, 4), 9)
    assert np.array_equal(units[:, 3], units[:, 20])


@pytest.mark.parametrize("metric,bits", PREFIX_CONFIGS)
def test_nothing_written(metric, bits):
    rng = np.random.default_rng(0)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(64)
    units = _assert_matches_reference(engine, _draw(rng, bits, 3), 0)
    assert np.all(units == units[:, :1])
    empty = engine.readout_batch(np.empty((0, DIMS), dtype=int))
    assert empty.shape == (0, 64)


@pytest.mark.parametrize("metric,bits", PREFIX_CONFIGS)
def test_fully_written_array_compiles_every_row(metric, bits):
    rng = np.random.default_rng(1)
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.program(_draw(rng, bits, 12))
    _assert_matches_reference(engine, _draw(rng, bits, 4), 12)


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_a_raw_array_write_stops_the_kernel_until_the_engine_writes(
    metric, bits
):
    """``stored`` describes the array only up to the engine's own last
    write: after a raw level write the array answers by float physics,
    exactly as with the kernel switched off, until the engine writes."""
    rng = np.random.default_rng(bits * 3 + len(metric))
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.allocate(16)
    engine.write_rows(0, _draw(rng, bits, 8))
    assert engine.quantized_kernel() is not None
    array = engine.array
    # Row 0 takes row 3's levels behind the engine's back.
    array.program_rows(0, array.levels[3:4])
    assert engine.quantized_kernel() is None
    queries = _draw(rng, bits, 5)
    active = np.arange(16) < 8
    found = engine.search_k_batch(queries, 4, active_rows=active)
    array.kernel_enabled = False
    physics = engine.search_k_batch(queries, 4, active_rows=active)
    array.kernel_enabled = True
    assert np.array_equal(found.winners, physics.winners)
    assert found.row_units.tobytes() == physics.row_units.tobytes()

    engine.write_rows(0, engine.stored[3:4])
    _assert_matches_reference(engine, queries, 8)


@pytest.mark.parametrize("metric,bits", CONFIGS)
def test_a_foreign_alphabet_takes_the_float_table(metric, bits):
    """Values-path queries over an alphabet other than the registered
    one score by the float table, bit-identical to the float physics
    on the expanded bias matrices; the registered alphabet keeps its
    kernel."""
    rng = np.random.default_rng(bits * 5 + len(metric))
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.program(_draw(rng, bits, 12))
    array = engine.array
    sl, dl = array._alphabet
    foreign = sl + 0.0137  # no shifted entry is a registered one
    value_index = _draw(rng, bits, 5)
    found = array.search_k_batch_values(foreign, dl, value_index, 4)
    assert array._scorer_cache["kernel"][1] is None

    columns = np.repeat(value_index, array.cell_fanout, axis=1)
    sl_matrix = np.take_along_axis(foreign, columns, axis=0)
    dl_matrix = np.take_along_axis(dl, columns, axis=0)
    assert array._kernel_match(sl_matrix, dl_matrix) is None
    expanded = array.search_k_batch(sl_matrix, dl_matrix, 4)
    assert np.array_equal(found.winners, expanded.winners)
    assert found.row_units.tobytes() == expanded.row_units.tobytes()
    assert engine.quantized_kernel() is not None
