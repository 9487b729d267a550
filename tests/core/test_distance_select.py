"""Selecting on the distance matrix returns exactly the value winners.

A certified configuration
(:attr:`repro.core.cell_config.CellConfiguration.distance_table`)
orders rows in current the way its DM orders them, up to ties.  A
distance kernel (``LUTKernel(codes, lut, distance)``) therefore scores
every row's integer DM distance ``D`` with one float32 product of its
stacked planes and gathers exact value scores only for the rows with
``D`` at most each query's ``k``-th live ``D``.  :meth:`LUTKernel.top_k`
must equal :meth:`LUTKernel.scores` + :func:`integer_top_k` in ids
**and** exact scores, for every metric, width, encoder, alive mask and
append history.  A LUT whose leakage residual could reorder rows must
lose the certificate.  The stacked block must score what the gather
does, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.lta import integer_top_k
from repro.core import code_dtype
from repro.core import engine as engine_module
from repro.core.distance import get_metric, metric_element_lut
from repro.core.engine import FeReX
from repro.core.kernel import TRANSPOSED_PRODUCT_MAX, LUTKernel

CELLS = 32


def _configuration(metric, bits, encoder, cells=CELLS):
    engine = FeReX(metric=metric, bits=bits, dims=cells, encoder=encoder)
    lut, _ = engine.value_lut()
    return engine.cell, lut


def _expected(codes, lut, value_index, k, alive):
    """The value path: every row's exact score, then integer_top_k."""
    raw = LUTKernel(codes, lut).scores(value_index).astype(np.int64)
    rows = integer_top_k(raw, k, alive)
    return rows, raw[np.arange(len(raw))[:, None], rows]


def _grown(codes, lut, distance, splits):
    """A distance kernel over ``codes``, fresh or grown by appends at
    ``splits``."""
    bounds = [0, *sorted(splits), len(codes)]
    kernel = LUTKernel(codes[: bounds[1]], lut, distance)
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        kernel.append(codes[lo:hi])
    return kernel


@st.composite
def selections(draw):
    metric = draw(st.sampled_from(["manhattan", "euclidean", "hamming"]))
    bits = draw(st.sampled_from([2, 3]))
    encoder = draw(st.sampled_from(["auto", "constructive"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 300))
    n = draw(st.integers(1, 12))
    # Clustered codes tie often in D, which is where order matters.
    spread = draw(st.sampled_from([1, 1 << bits]))
    centre = rng.integers(0, 1 << bits, size=CELLS)
    codes = np.clip(
        centre + rng.integers(0, spread, size=(rows, CELLS)),
        0,
        (1 << bits) - 1,
    ).astype(code_dtype(bits))
    alive = rng.random(rows) < draw(st.sampled_from([1.0, 0.7, 0.2]))
    alive[rng.integers(rows)] = True
    k = draw(st.integers(1, int(alive.sum())))
    splits = draw(st.lists(st.integers(0, rows), max_size=3))
    value_index = rng.integers(0, 1 << bits, size=(n, CELLS))
    return metric, bits, encoder, codes, alive, k, splits, value_index


@settings(max_examples=120, deadline=None)
@given(selections())
def test_top_k_equals_scores_then_integer_top_k(case):
    metric, bits, encoder, codes, alive, k, splits, value_index = case
    cell, lut = _configuration(metric, bits, encoder)
    assert cell.distance_table is not None
    kernel = _grown(codes, lut, cell.distance_table, splits)
    assert kernel.codes.dtype == codes.dtype
    rows, scores = kernel.top_k(value_index, k, alive)
    expected_rows, expected_scores = _expected(
        codes, lut, value_index, k, alive
    )
    assert rows.shape == scores.shape == (len(value_index), k)
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(scores, expected_scores)
    # The value kernel's own top_k is the same selection.
    value_rows, value_scores = LUTKernel(codes, lut).top_k(
        value_index, k, alive
    )
    assert np.array_equal(value_rows, expected_rows)
    assert np.array_equal(value_scores, expected_scores)


def test_a_large_batch_selects_through_the_untransposed_product():
    """Past ``TRANSPOSED_PRODUCT_MAX`` the product runs as
    ``mask @ plane.T``; the selection must not move."""
    cell, lut = _configuration("manhattan", 2, "auto")
    rng = np.random.default_rng(3)
    rows, n = 9000, 40
    assert rows * n > TRANSPOSED_PRODUCT_MAX
    codes = rng.integers(0, 4, size=(rows, CELLS)).astype(np.int8)
    alive = rng.random(rows) < 0.9
    value_index = rng.integers(0, 4, size=(n, CELLS))
    kernel = LUTKernel(codes, lut, cell.distance_table)
    got = kernel.top_k(value_index, 10, alive)
    expected = _expected(codes, lut, value_index, 10, alive)
    assert all(map(np.array_equal, got, expected))


def test_a_distance_kernel_scores_exact_values_and_holds_narrow_planes():
    cell, lut = _configuration("manhattan", 2, "auto")
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 4, size=(500, CELLS)).astype(np.int8)
    value_index = rng.integers(0, 4, size=(6, CELLS))
    kernel = LUTKernel(codes, lut, cell.distance_table)
    value = LUTKernel(codes, lut)
    scores = kernel.scores(value_index)
    assert np.array_equal(scores, value.scores(value_index))
    # Three stacked float32 planes and a float64 base: 392 B per row,
    # against the value kernel's 97 float64 columns (776 B).
    assert kernel.nbytes == 392 * len(codes)
    assert value.nbytes == 776 * len(codes)
    assert kernel.codes.dtype == np.int8 and kernel._codes.itemsize == 1


def _perturbed_cell(monkeypatch, leak):
    """A fresh Manhattan 2-bit configuration whose value table adds
    ``leak`` unit currents per cell to every stored value that matches
    the query (the DM's zero diagonal)."""
    monkeypatch.setattr(engine_module, "_CONFIGURATIONS", {})
    cell, _ = _configuration("manhattan", 2, "auto")
    lut, quantum = cell.value_table
    bump = np.zeros_like(lut)
    steps = leak * cell.tech.cell.unit_current / quantum
    np.fill_diagonal(bump[:, :-1], int(round(steps)))
    cell.__dict__["value_table"] = (lut + bump, quantum)
    return cell


def test_a_residual_spread_past_one_unit_breaks_the_certificate(
    monkeypatch,
):
    """Leakage of half a unit per row keeps the certificate; 1.5 units
    per row (``dims x spread >= 1``) break it."""
    assert _perturbed_cell(monkeypatch, 0.5 / CELLS).distance_table is not None
    assert _perturbed_cell(monkeypatch, 1.5 / CELLS).distance_table is None


def test_an_uncertified_table_would_select_the_wrong_rows(monkeypatch):
    """Why the certificate gates the distance path: with each matching
    cell leaking 1.5 units, a row equal to the query (32 matches) reads
    more current than one a step away (31 matches plus one unit), and
    D-selection picks the wrong one."""
    cell = _perturbed_cell(monkeypatch, 1.5)
    assert cell.distance_table is None
    lut = cell.value_table[0][:, :-1]
    distance = cell.dm.values
    query = np.zeros((1, CELLS), dtype=np.int64)
    codes = np.zeros((2, CELLS), dtype=np.int8)
    codes[1, 0] = 1  # D = 1 against the query; row 0 has D = 0
    kernel = LUTKernel(codes, lut, distance)
    assert kernel.top_k(query, 1)[0].tolist() == [[0]]
    assert _expected(codes, lut, query, 1, None)[0].tolist() == [[1]]


@pytest.mark.parametrize("rows, n", [(66, 4096), (1745, 8), (9000, 40)])
def test_stacked_block_scores_equal_the_gather_bit_for_bit(rows, n):
    """The routing centroid LUT's planes all stack: one product scores
    them, in both orientations, fresh and appended."""
    lut = metric_element_lut(get_metric("euclidean"), 3)
    rng = np.random.default_rng(rows)
    codes = rng.integers(0, 8, size=(rows, CELLS))
    value_index = rng.integers(0, 8, size=(n, CELLS))
    for kernel in (
        LUTKernel(codes, lut),
        _grown(codes, lut, None, [rows // 3, rows // 2]),
    ):
        assert kernel._block.shape[1:] == (CELLS, 7)
        assert all(g == 1 for g, _ in kernel._planes)
        scores = kernel.scores(value_index)
        assert scores.flags.c_contiguous
        assert np.array_equal(scores, kernel.scores_gather(value_index))
