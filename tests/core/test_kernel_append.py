"""Property: an appended kernel is the kernel over all its codes.

:meth:`repro.core.kernel.LUTKernel.append` compiles only the new rows'
codes, base entries and plane columns, into buffers regrown to
:func:`repro.core.kernel.headroom` rows when outgrown.  Any sequence of
appends — empty ones and ones that cross a regrowth included — must
leave a kernel whose ``scores``, ``scores_gather``, plane dtypes and
steps, accumulator and codes equal those of one ``LUTKernel`` over the
concatenated codes, bit for bit, for float32 and float64 planes alike
and for mixed sets of both.  The base and every float64 plane stay row
blocks of one wide matrix through every regrowth, and every float32
plane stays a ``(capacity, cells)`` slice of the one row-major stacked
block.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import FeReX
from repro.core.kernel import LUTKernel, headroom

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _lut(rng, n_values, n_symbols, wide=()):
    """A LUT whose planes are float32 except those of the values in
    ``wide``, which are float64: a gcd-1 delta reaching ``2**22``, over
    at least four cells, passes float32's ``2**24`` bound."""
    lut = rng.integers(-40, 40, size=(n_values, n_symbols))
    for v in wide:
        lut[v] = lut[0]
        lut[v, 0] += 1
        lut[v, -1] += 1 << 22
    return lut


def _assert_one_wide_matrix(kernel):
    """The base and every float64 plane are views of one buffer, each
    float64 plane ``(cells, capacity)``; every float32 plane is
    ``(capacity, cells)``: a slice of the one row-major ``(capacity,
    cells, planes)`` stacked block where its raw deltas fit float32
    (``g == 1``), else its own row-major buffer."""
    owner = kernel._base.base
    assert owner is not None
    capacity = len(kernel._base)
    assert kernel._block.flags.c_contiguous
    assert kernel._block.shape[:2] == (capacity, kernel.cells)
    for g, plane in kernel._planes:
        if plane.dtype == F64:
            assert plane.shape == (kernel.cells, capacity)
        else:
            assert plane.shape == (capacity, kernel.cells)
            stacked = np.shares_memory(plane, kernel._block)
            if g == 1:
                assert stacked or not plane.size
            else:
                assert plane.flags.c_contiguous and not stacked
        assert (plane.base is owner) == (plane.dtype == F64)
        if plane.size and plane.dtype == F64:
            assert np.shares_memory(owner, plane)


def _assert_same_kernel(appended, fresh, value_index):
    assert appended.rows == fresh.rows
    assert appended.accumulator == fresh.accumulator
    assert np.array_equal(appended.codes, fresh.codes)
    assert [(g, p.dtype) for g, p in appended._planes] == [
        (g, p.dtype) for g, p in fresh._planes
    ]
    _assert_one_wide_matrix(appended)
    _assert_one_wide_matrix(fresh)
    scores = appended.scores(value_index)
    assert scores.dtype == np.float64
    assert np.array_equal(scores, fresh.scores(value_index))
    assert np.array_equal(
        appended.scores_gather(value_index), fresh.scores_gather(value_index)
    )


@st.composite
def append_streams(draw):
    """(lut, first codes, appended code blocks, value index)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_values = draw(st.integers(1, 5))
    # Any subset of the planes is float64: none, some (a mixed set) or
    # all of them.
    wide = draw(st.sets(st.integers(1, 4))) & set(range(1, n_values))
    n_symbols = draw(st.integers(2 if wide else 1, 6))
    cells = draw(st.integers(4 if wide else 1, 12))
    sizes = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8))
    blocks = [rng.integers(0, n_symbols, size=(n, cells)) for n in sizes]
    value_index = rng.integers(
        0, n_values, size=(draw(st.integers(0, 6)), cells)
    )
    return _lut(rng, n_values, n_symbols, wide), blocks, value_index


@given(append_streams())
@settings(max_examples=150, deadline=None)
def test_appends_equal_one_kernel_over_all_codes(stream):
    lut, blocks, value_index = stream
    kernel = LUTKernel(blocks[0], lut)
    for block in blocks[1:]:
        kernel.append(block)
        assert len(kernel._base) >= kernel.rows
    fresh = LUTKernel(np.concatenate(blocks), lut)
    _assert_same_kernel(kernel, fresh, value_index)


@pytest.mark.parametrize(
    "wide",
    [(), (1,), (1, 2), (1, 2, 3)],
    ids=["float32", "first-float64", "mixed", "float64"],
)
def test_appends_across_regrowths(wide):
    rng = np.random.default_rng(17)
    lut = _lut(rng, 4, 5, wide)
    blocks = [rng.integers(0, 5, size=(n, 9)) for n in (8, 1, 0, 1, 30, 0)]
    kernel = LUTKernel(blocks[0], lut)
    assert len(kernel._base) == 8  # a fresh compile fits its rows
    capacities = []
    for block in blocks[1:]:
        kernel.append(block)
        capacities.append(len(kernel._base))
    # 9 rows regrow to 10, the next fits, 40 regrow to 45.
    assert capacities == [headroom(9), 10, 10, headroom(40), 45]
    assert [p.dtype for _, p in kernel._planes] == [
        F64 if v in wide else F32 for v in (1, 2, 3)
    ]
    assert kernel._block.shape == (45, 9, 3 - len(wide))
    value_index = rng.integers(0, 4, size=(7, 9))
    _assert_same_kernel(
        kernel, LUTKernel(np.concatenate(blocks), lut), value_index
    )


def test_hamming_two_bit_value_lut_appends_into_one_wide_matrix():
    """The shipped mixed set: two float64 planes and one float32."""
    lut, _ = FeReX(metric="hamming", bits=2, dims=24).value_lut()
    rng = np.random.default_rng(29)
    blocks = [rng.integers(0, 4, size=(n, 24)) for n in (5, 3, 0, 40, 2)]
    kernel = LUTKernel(blocks[0], lut)
    assert [p.dtype for _, p in kernel._planes] == [F64, F64, F32]
    for block in blocks[1:]:
        kernel.append(block)
    value_index = rng.integers(0, 4, size=(9, 24))
    _assert_same_kernel(
        kernel, LUTKernel(np.concatenate(blocks), lut), value_index
    )


def test_append_validates_its_codes():
    kernel = LUTKernel(np.zeros((3, 4), dtype=int), np.arange(6).reshape(2, 3))
    with pytest.raises(ValueError, match="expected"):
        kernel.append(np.zeros((2, 5), dtype=int))
    with pytest.raises(ValueError, match="symbol range"):
        kernel.append(np.full((2, 4), 3))
    assert kernel.rows == 3


def test_readers_score_a_consistent_prefix_while_rows_append():
    rng = np.random.default_rng(23)
    lut = _lut(rng, 4, 5, wide=(2,))
    codes = rng.integers(0, 5, size=(900, 9))
    value_index = rng.integers(0, 4, size=(3, 9))
    full = LUTKernel(codes, lut).scores(value_index)
    kernel = LUTKernel(codes[:1], lut)
    torn, done = [], threading.Event()

    def reader():
        while not done.is_set():
            for got in (
                kernel.scores(value_index),
                kernel.scores_gather(value_index),
            ):
                if not np.array_equal(got, full[:, : got.shape[1]]):
                    torn.append(got.shape)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for lo in range(1, len(codes), 3):
            kernel.append(codes[lo : lo + 3])
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert torn == []
    assert np.array_equal(kernel.scores(value_index), full)
