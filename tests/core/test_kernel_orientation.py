"""Both product orientations score exactly what the gather does.

:meth:`repro.core.kernel.LUTKernel.scores` multiplies each row-major
float32 plane by the query mask in whichever orientation suits the
shape: ``plane @ mask.T`` when the kernel holds at least as many rows
as the batch (a bank, a cluster), ``mask @ plane.T`` otherwise (the
routing centroid kernel against a training set).  Both must equal
:meth:`LUTKernel.scores_gather` bit for bit, for float32-only,
float64-only and mixed LUTs, on a fresh kernel and on one whose
buffers an append regrew past its rows.
"""

import numpy as np
import pytest

from repro.core.kernel import LUTKernel

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
CELLS = 48

#: Plane dtypes per LUT kind, values 1.. in order.
KINDS = {
    "float32": [F32, F32, F32],
    "float64": [F64, F64, F64],
    "mixed": [F32, F64, F32],
}


def _lut(rng, kind):
    """A 4-value LUT whose planes have ``KINDS[kind]``'s dtypes: small
    deltas stay float32; a gcd-1 delta reaching ``2**22`` over 48
    cells passes float32's ``2**24`` bound."""
    lut = rng.integers(-40, 40, size=(4, 5))
    for v, dtype in enumerate(KINDS[kind], start=1):
        if dtype == F64:
            lut[v] = lut[0]
            lut[v, 0] += 1
            lut[v, -1] += 1 << 22
    return lut


def _kernel(codes, lut, appended):
    """A fresh kernel over ``codes``, or one grown to them by two
    appends, each past the buffers' capacity."""
    if not appended:
        return LUTKernel(codes, lut)
    first, second = len(codes) // 5, len(codes) * 4 // 5
    kernel = LUTKernel(codes[:first], lut)
    kernel.append(codes[first:second])
    kernel.append(codes[second:])
    assert len(kernel._base) > kernel.rows  # the slack a regrowth left
    return kernel


@pytest.mark.parametrize("appended", [False, True], ids=["fresh", "appended"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("rows, n", [(1024, 1), (1024, 32), (66, 4096)])
def test_scores_equal_the_gather_bit_for_bit(rows, n, kind, appended):
    rng = np.random.default_rng(rows + n)
    lut = _lut(rng, kind)
    codes = rng.integers(0, lut.shape[1], size=(rows, CELLS))
    value_index = rng.integers(0, len(lut), size=(n, CELLS))
    kernel = _kernel(codes, lut, appended)
    assert [plane.dtype for _, plane in kernel._planes] == KINDS[kind]
    scores = kernel.scores(value_index)
    assert scores.shape == (n, rows)
    assert scores.flags.c_contiguous
    assert np.array_equal(scores, kernel.scores_gather(value_index))
    assert np.array_equal(scores, LUTKernel(codes, lut).scores(value_index))
