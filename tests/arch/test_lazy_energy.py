"""Batch search energy is evaluated when read, never on the search path.

``BatchSearchKResult.energy_per_query`` is a nominal-activity estimate
off the first query's row currents and drain levels.  Index searches
never read it, so a search must make no ``search_energy`` call; a
reader must get exactly the breakdown the eager evaluation produced.
"""

import numpy as np
import pytest

from repro.arch.energy import EnergyModel
from repro.core.engine import FeReX
from repro.index import FerexIndex


@pytest.fixture
def energy_calls(monkeypatch):
    calls = []
    search_energy = EnergyModel.search_energy

    def counted(self, *args, **kwargs):
        calls.append(args)
        return search_energy(self, *args, **kwargs)

    monkeypatch.setattr(EnergyModel, "search_energy", counted)
    return calls


def _eager(array, row_currents, dl_multiples):
    """The per-query energy as every batch search used to evaluate it."""
    energy = array.energy_model.search_energy(
        row_currents, dl_multiples, array.timing_model.search_timing()
    )
    energy.add("lta", 0.0)
    return energy


@pytest.mark.parametrize("seed", [None, 3])
def test_index_search_makes_no_energy_call(energy_calls, seed):
    rng = np.random.default_rng(8)
    index = FerexIndex(
        dims=12, metric="manhattan", bits=2, bank_rows=16, seed=seed
    )
    index.add(rng.integers(0, 4, size=(40, 12)))
    index.remove([3, 30])
    index.search(rng.integers(0, 4, size=(5, 12)), k=3)
    assert index.backend.n_banks == 3
    assert energy_calls == []


@pytest.mark.parametrize(
    "metric,bits", [("hamming", 1), ("manhattan", 2), ("euclidean", 3)]
)
@pytest.mark.parametrize("seed", [None, 5])
def test_lazy_energy_equals_the_eager_value(energy_calls, metric, bits, seed):
    rng = np.random.default_rng(bits)
    engine = FeReX(metric=metric, bits=bits, dims=7, seed=seed)
    engine.program(rng.integers(0, 1 << bits, size=(9, 7)))
    array = engine.array
    queries = rng.integers(0, 1 << bits, size=(4, 7))
    sl, dl, value_index = engine._batch_bias(queries)
    raw, quantum = array._score_values(sl, dl, value_index)
    currents = raw * quantum
    dl_first = array._first_query_dl(dl, value_index)
    # The generic path sees the same bias, expanded per query.
    per_col = np.repeat(value_index, array.cell_fanout, axis=1)
    cols = np.arange(array.physical_cols)
    sl_matrix, dl_matrix = sl[per_col, cols], dl[per_col, cols]
    assert np.array_equal(dl_matrix[0], dl_first)
    expected = _eager(array, currents[0], dl_first)
    energy_calls.clear()

    values = array.search_k_batch_values(sl, dl, value_index, 3)
    generic = array.search_k_batch(sl_matrix, dl_matrix, 3)
    nearest = values.nearest()
    assert energy_calls == []  # searching and nearest() stay lazy

    for result in (values, generic, nearest):
        assert result.energy_per_query.components == expected.components
    assert nearest.total_energy == 4 * expected.total
    # Evaluated once per search; the k = 1 view shares the value.
    assert len(energy_calls) == 2
    assert nearest.energy_per_query is values.energy_per_query


def test_empty_batch_energy_reads_zero_activity():
    engine = FeReX(metric="hamming", bits=2, dims=8)
    engine.program(np.zeros((3, 8), dtype=int))
    array = engine.array
    batch = engine.search_k_batch(np.empty((0, 8), dtype=int), 2)
    expected = _eager(
        array, np.zeros(array.rows), np.zeros(array.physical_cols, int)
    )
    assert batch.energy_per_query.components == expected.components
    assert batch.nearest().total_energy == 0.0
