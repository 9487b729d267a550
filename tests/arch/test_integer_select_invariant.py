"""The invariant the kernel path's integer select relies on.

A batch whose row currents come from the compiled kernel selects its
winners on exact integer keys (:func:`repro.circuits.lta.integer_top_k`)
and ignores the LTA's comparator offsets.  That is the LTA's own
decision only because the kernel compiles nowhere an offset is
non-zero.  This file pins that gate on ideal and seeded index banks and
on an array whose only variation is its comparator offsets, and checks
that a seeded index still answers through the offset-adjusted float
``_select``.
"""

import numpy as np
import pytest

from repro.arch import crossbar
from repro.arch.crossbar import FeReXArray
from repro.core.config import quantize_codes
from repro.core.engine import FeReX
from repro.devices.variation import nominal_variation
from repro.index import FerexIndex
from repro.index.backends import merge_top_k


@pytest.fixture
def integer_selects(monkeypatch):
    calls = []
    select = crossbar.integer_top_k

    def counted(scores, k, active=None):
        calls.append(scores.shape)
        return select(scores, k, active)

    monkeypatch.setattr(crossbar, "integer_top_k", counted)
    return calls


def _index(seed):
    rng = np.random.default_rng(11)
    index = FerexIndex(
        dims=10, metric="manhattan", bits=2, bank_rows=16, seed=seed
    )
    index.add(rng.integers(0, 4, size=(40, 10)))
    index.remove([1, 17, 39])
    return index, rng.integers(0, 4, size=(7, 10))


def _assert_kernel_implies_zero_offsets(array):
    if array.quantized_kernel() is not None:
        assert not np.any(array._lta.offsets)


@pytest.mark.parametrize("seed", [None, 4])
def test_compiled_banks_have_zero_comparator_offsets(seed, integer_selects):
    index, queries = _index(seed)
    index.search(queries, k=5)
    arrays = [bank.engine.array for bank in index.backend._banks]
    for array in arrays:
        _assert_kernel_implies_zero_offsets(array)
    compiled = [a.quantized_kernel() is not None for a in arrays]
    if seed is None:
        assert all(compiled) and len(integer_selects) == len(arrays)
    else:
        assert not any(compiled) and integer_selects == []
        assert all(np.any(a._lta.offsets) for a in arrays)


def test_comparator_offsets_alone_keep_the_kernel_off():
    rng = np.random.default_rng(2)
    engine = FeReX(metric="hamming", bits=1, dims=6)
    engine.program(rng.integers(0, 2, size=(9, 6)))
    ideal = engine.array
    assert ideal.quantized_kernel() is not None
    variation = nominal_variation(ideal.rows, ideal.physical_cols)
    variation.lta_offset = rng.normal(0.0, 1e-8, size=ideal.rows)
    offset = FeReXArray(
        ideal.rows,
        ideal.physical_cols,
        tech=ideal.tech,
        variation=variation,
        cell_fanout=ideal.cell_fanout,
    )
    offset.program_rows(0, ideal.levels)
    offset.set_search_alphabet(*ideal._alphabet)
    assert offset.quantized_kernel() is None
    _assert_kernel_implies_zero_offsets(offset)


def test_seeded_index_answers_through_the_float_select(integer_selects):
    index, queries = _index(seed=4)
    backend = index.backend
    k = 5
    positions, distances = [], []
    for bank in backend._banks:
        array = bank.engine.array
        active = bank.active_rows()
        sl, dl, value_index = bank.engine._batch_bias(
            quantize_codes(queries, backend.config.bits, bank.config.bits)
        )
        currents, quantum = array._score_values(sl, dl, value_index)
        assert currents.dtype == np.float64 and quantum == 1.0
        winners = array._select(currents, active, min(k, int(active.sum())))
        positions.append(bank.start + winners)
        distances.append(
            np.take_along_axis(currents, winners, axis=1)
            / array.tech.cell.unit_current
        )
    expected_ids, expected_dist = merge_top_k(
        np.concatenate(positions, axis=1),
        np.concatenate(distances, axis=1),
        k,
    )
    ids, dist = backend.search(queries, k)
    assert integer_selects == []
    assert np.array_equal(ids, expected_ids)
    assert dist.dtype == expected_dist.dtype
    assert dist.tobytes() == expected_dist.tobytes()
