"""Batch search readings are converted when read, and only where read.

A batch result keeps its raw row currents — the compiled kernel's int64
scores, or float amps — and converts them to unit currents on demand.
An index search reads ``winner_units`` (the ``k`` winners' readings), so
it must never convert a full (n, rows) ``row_units``; a reader of
``row_units`` must get exactly the array the eager division produced,
dtype included.
"""

import numpy as np
import pytest

from repro.arch import crossbar
from repro.core.engine import FeReX
from repro.index import FerexIndex


@pytest.fixture
def conversions(monkeypatch):
    shapes = []
    units = crossbar._Readings.units

    def counted(self, raw):
        shapes.append(raw.shape)
        return units(self, raw)

    monkeypatch.setattr(crossbar._Readings, "units", counted)
    return shapes


def _eager_units(array, sl, dl, value_index):
    """``row_units`` as every batch search used to evaluate it."""
    kernel = array._kernel_for(sl, dl)
    if kernel is not None:
        currents = kernel.row_currents(value_index)
    else:
        currents = array._score_values(sl, dl, value_index)[0]
    return currents / array.tech.cell.unit_current


def test_kernel_index_search_never_converts_every_row(conversions):
    rng = np.random.default_rng(6)
    index = FerexIndex(dims=12, metric="hamming", bits=1, bank_rows=32)
    index.add(rng.integers(0, 2, size=(80, 12)))
    index.remove([4, 50])
    queries = rng.integers(0, 2, size=(9, 12))
    index.search(queries, k=4)
    banks = index.backend._banks
    assert all(b.engine.array.quantized_kernel() for b in banks)
    assert conversions == [(9, 4)] * len(banks)


@pytest.mark.parametrize(
    "metric,bits", [("hamming", 1), ("manhattan", 2), ("euclidean", 3)]
)
@pytest.mark.parametrize("seed", [None, 5])
def test_readings_equal_the_eager_division(metric, bits, seed):
    rng = np.random.default_rng(bits)
    engine = FeReX(metric=metric, bits=bits, dims=7, seed=seed)
    engine.program(rng.integers(0, 1 << bits, size=(11, 7)))
    array = engine.array
    assert (array.quantized_kernel() is None) == (seed is not None)
    queries = rng.integers(0, 1 << bits, size=(5, 7))
    sl, dl, value_index = engine._batch_bias(queries)
    expected = _eager_units(array, sl, dl, value_index)
    active = np.ones(array.rows, dtype=bool)
    active[[2, 7]] = False

    result = engine.search_k_batch(queries, 6, active_rows=active)
    winner_units = result.winner_units
    assert winner_units.shape == (5, 6)
    for readings in (
        result.row_units,
        result.nearest().row_units,
        engine.readout_batch(queries),
    ):
        assert readings.dtype == expected.dtype
        assert readings.tobytes() == expected.tobytes()
    picked = np.take_along_axis(expected, result.winners, axis=1)
    assert winner_units.dtype == picked.dtype
    assert winner_units.tobytes() == picked.tobytes()
    nearest = result.nearest()
    assert nearest.row_units is result.row_units  # one lazy value
    single = engine.search_batch(queries)
    assert single.row_units.tobytes() == expected.tobytes()


def test_empty_batch_readings():
    engine = FeReX(metric="hamming", bits=2, dims=8)
    engine.program(np.zeros((3, 8), dtype=int))
    batch = engine.search_k_batch(np.empty((0, 8), dtype=int), 2)
    assert batch.winner_units.shape == (0, 2)
    assert batch.row_units.shape == (0, 3)
