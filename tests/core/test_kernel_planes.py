"""Property: the narrow exact planes score exactly what float64 did.

:class:`repro.core.kernel.LUTKernel` keeps one plane per query value
``v >= 1``, gathered per cell: the delta row ``lut[v] - lut[0]`` as its
gcd ``g_v`` times small integers in float32 while
``cells x max|small_v| < 2**24``, and the float64 delta itself
otherwise.  The base and the float64 planes are row blocks of one
``(1 + planes x cells, rows)`` wide matrix, scored by one product;
each float32 plane is its own row-major ``(rows, cells)`` gather
``small_v[codes]`` with a product of its own.
``scores`` must equal ``scores_gather`` and the float64 formula it
replaced, ``base + sum_v mask_v @ (lut[v] - lut[0])[codes].T``, bit for
bit, whatever mix of the two plane kinds a LUT compiles to.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.kernel import EXACT_FLOAT_BITS, LUTKernel


def _float64_formula(codes, lut, value_index):
    """The all-float64 dgemm over the expanded deltas."""
    out = np.empty((len(value_index), len(codes)))
    out[:] = lut[0][codes].sum(axis=1).astype(np.float64)
    for v in range(1, len(lut)):
        weights = (lut[v] - lut[0])[codes].T.astype(np.float64)
        out += (value_index == v).astype(np.float64) @ weights
    return out


def _assert_exact(codes, lut, value_index):
    kernel = LUTKernel(codes, lut)
    scores = kernel.scores(value_index)
    assert scores.dtype == np.float64
    assert scores.shape == (len(value_index), len(codes))
    assert np.array_equal(scores, kernel.scores_gather(value_index))
    assert np.array_equal(scores, _float64_formula(codes, lut, value_index))
    for _, plane in kernel._planes:
        assert (plane.base is kernel._base.base) == (
            plane.dtype == np.float64
        )
    return kernel


def _deltas(g, small, rng, offset_bits):
    """(n_values, n_symbols) LUT whose row ``v`` is
    ``offset + g[v - 1] * small[v - 1]``, with row 0 the offset."""
    offset = rng.integers(0, 1 << offset_bits, size=small.shape[1])
    return np.vstack([offset, offset + g[:, None] * small])


@st.composite
def kernels(draw):
    """(codes, lut, value_index) within the kernel's 53-bit bound."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_values = draw(st.integers(1, 5))
    n_symbols = draw(st.integers(1, 6))
    shape = (n_values - 1, n_symbols)
    kind = draw(st.sampled_from(["physical", "wide", "random", "mixed"]))
    if kind == "physical":
        # Device LUTs: a 40-47-bit current step times {-peak .. peak}
        # over a leakage-sized offset.
        g_bits = draw(st.integers(40, 47))
        peak = draw(st.integers(1, 4))
        g = rng.integers(1 << (g_bits - 1), 1 << g_bits, size=n_values - 1)
        small = rng.integers(-peak, peak + 1, size=shape)
        lut = _deltas(g, small, rng, 28)
    elif kind == "wide":
        # Small steps, large multipliers: cells x peak straddles 2**24.
        peak = draw(st.integers(1, 1 << 14))
        g = rng.integers(1, 1 << 16, size=n_values - 1)
        small = rng.integers(-peak, peak + 1, size=shape)
        lut = _deltas(g, small, rng, 20)
    elif kind == "mixed":
        # Physical float32 planes beside raw gcd-1 deltas only float64
        # holds: the wide matrix's product and float32 products at once.
        g = rng.integers(1 << 39, 1 << 40, size=n_values - 1)
        small = rng.integers(-4, 5, size=shape)
        lut = _deltas(g, small, rng, 28)
        for v in draw(st.sets(st.integers(1, 4))):
            if v < n_values:
                lut[v] = lut[0] + rng.integers(
                    -(1 << 44), 1 << 44, size=n_symbols
                )
    else:
        lut = rng.integers(-(1 << 45), 1 << 45, size=(n_values, n_symbols))
    for v in draw(st.sets(st.integers(1, max(1, n_values - 1)))):
        if v < n_values:
            lut[v] = lut[0]  # an all-zero plane: gcd 0
    max_entry = max(1, int(np.abs(lut).max()))
    max_cells = ((1 << EXACT_FLOAT_BITS) - 1) // (2 * max_entry)
    cells = draw(st.integers(1, min(2048, max_cells)))
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(0, 5))
    codes = rng.integers(0, n_symbols, size=(rows, cells))
    value_index = rng.integers(0, n_values, size=(n, cells))
    return codes, lut, value_index


@settings(max_examples=200, deadline=None)
@given(kernels())
def test_planes_score_the_float64_formula_bit_for_bit(case):
    _assert_exact(*case)


def test_each_plane_is_gcd_times_small_integers():
    rng = np.random.default_rng(1)
    g = np.array([3 << 44, 7 << 40])
    small = np.array([[1, -1, 0, 2], [-3, 0, 1, 1]])
    lut = _deltas(g, small, rng, 28)
    codes = rng.integers(0, 4, size=(5, 9))
    kernel = _assert_exact(codes, lut, rng.integers(0, 3, size=(4, 9)))
    for (plane_g, plane), step, row in zip(kernel._planes, g, small):
        assert plane_g == step
        assert plane.dtype == np.float32
        assert plane.flags.c_contiguous
        assert np.array_equal(plane, row[codes])


def test_all_zero_plane_has_unit_gcd():
    lut = np.array([[5, 9, 1], [5, 9, 1], [6, 9, 1]])
    codes = np.array([[0, 1, 2], [2, 2, 0]])
    kernel = _assert_exact(codes, lut, np.array([[1, 2, 0], [1, 1, 1]]))
    g, plane = kernel._planes[0]
    assert g == 1 and plane.dtype == np.float32 and not plane.any()


def test_one_symbol_lut():
    lut = np.array([[1 << 45], [-(1 << 44)], [1 << 45], [3]])
    codes = np.zeros((3, 17), dtype=int)
    rng = np.random.default_rng(2)
    kernel = _assert_exact(codes, lut, rng.integers(0, 4, size=(6, 17)))
    assert [g for g, _ in kernel._planes] == [3 << 44, 1, (1 << 45) - 3]


def test_single_value_has_no_planes():
    codes = np.array([[0, 1], [1, 1], [0, 0]])
    value_index = np.zeros((2, 2), dtype=int)
    kernel = _assert_exact(codes, np.array([[4, 1 << 45]]), value_index)
    assert kernel._planes == []


def test_empty_batch():
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 3, size=(4, 6))
    lut = rng.integers(-(1 << 40), 1 << 40, size=(3, 3))
    _assert_exact(codes, lut, np.zeros((0, 6), dtype=int))


def _boundary_plane(peak, codes, g=1):
    """The one (g, plane) of a LUT whose delta row is ``g`` times small
    integers peaking at ``peak``."""
    lut = np.array([[0, 0, 0], [g * peak, g, 0]])
    return lut, LUTKernel(codes, lut)._planes[0]


def _exact_sums(codes, lut, value_index):
    return [
        sum(int(lut[v, c]) for v, c in zip(query, row))
        for query in value_index
        for row in codes
    ]


def test_dtype_boundary_at_two_to_the_24():
    codes = np.zeros((1, 2048), dtype=int)
    _, (g, plane) = _boundary_plane((1 << 13) - 1, codes, g=3)
    assert (g, plane.dtype) == (3, np.float32)
    lut, (g, plane) = _boundary_plane(1 << 13, codes, g=3)
    assert (g, plane.dtype) == (1, np.float64)  # the delta itself
    assert np.array_equal(plane, (lut[1] - lut[0])[codes].T)


def test_float64_plane_sums_past_two_to_the_24_exactly():
    rng = np.random.default_rng(4)
    codes = rng.choice(3, size=(7, 2048), p=[0.9, 0.08, 0.02])
    lut, (_, plane) = _boundary_plane((1 << 14) + 1, codes)
    assert plane.dtype == np.float64
    value_index = np.ones((2, 2048), dtype=int)
    value_index[1, ::5] = 0
    kernel = _assert_exact(codes, lut, value_index)
    exact = _exact_sums(codes, lut, value_index)
    assert max(exact) > 1 << 24
    assert kernel.scores(value_index).reshape(-1).tolist() == exact


def test_float32_planes_scale_and_add_past_two_to_the_24_exactly():
    """Each float32 plane stays exact below 2**24; its gcd product and
    the running total leave float32's range and must still be exact."""
    peak = (1 << 13) - 1
    g = np.array([3, 5])
    small = np.array([[peak, 1, 0], [-1, peak, 1]])
    offset = (1 << 40) + 1
    lut = np.vstack([np.full(3, offset), offset + g[:, None] * small])
    rng = np.random.default_rng(5)
    codes = rng.choice(3, size=(6, 2048), p=[0.5, 0.45, 0.05])
    value_index = rng.integers(1, 3, size=(4, 2048))
    value_index[:2] = [[1], [2]]
    kernel = _assert_exact(codes, lut, value_index)
    assert [(step, p.dtype) for step, p in kernel._planes] == [
        (3, np.float32),
        (5, np.float32),
    ]
    exact = _exact_sums(codes, lut, value_index)
    assert max(exact) - offset * 2048 > 1 << 24
    assert kernel.scores(value_index).reshape(-1).tolist() == exact
