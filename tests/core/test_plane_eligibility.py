"""Which shipped configurations compile float32 planes, and what they
cost.

A compiled crossbar kernel stores one plane per query value; a plane is
float32 exactly when its LUT delta row factors as a gcd times integers
small enough for exact sgemm partial sums, and a float32 plane is
row-major, ``(rows, cells)``: 4 B per cell at 1 bit.  The table below pins that
outcome per (metric, bits, encoder), so a device-LUT change that
silently falls back to float64 fails here instead of only running
slower.
"""

import numpy as np
import pytest

from repro.core.engine import FeReX
from repro.index import FerexIndex

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _expected_dtypes(metric, bits, encoder):
    n_planes = (1 << bits) - 1
    if (
        bits == 1
        or (metric, bits) == ("hamming", 3)
        or (metric, bits, encoder) == ("manhattan", 2, "constructive")
    ):
        return [F32] * n_planes
    if (metric, bits) == ("hamming", 2):
        return [F64, F64, F32]
    return [F64] * n_planes


def _kernel(metric, bits, dims, encoder="auto", rows=64):
    """A compiled engine kernel whose rows store every level."""
    rng = np.random.default_rng(bits)
    data = rng.integers(0, 1 << bits, size=(rows, dims))
    data[: 1 << bits] = np.arange(1 << bits)[:, None]
    engine = FeReX(metric=metric, bits=bits, dims=dims, encoder=encoder)
    engine.program(data)
    return engine.quantized_kernel().kernel


@pytest.mark.parametrize("dims", [32, 512])
@pytest.mark.parametrize("encoder", ["auto", "constructive"])
@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("metric", ["hamming", "manhattan", "euclidean"])
def test_plane_dtypes_per_shipped_config(metric, bits, encoder, dims):
    kernel = _kernel(metric, bits, dims, encoder)
    dtypes = [plane.dtype for _, plane in kernel._planes]
    assert dtypes == _expected_dtypes(metric, bits, encoder)


def test_one_bit_hamming_planes_take_four_bytes_per_cell():
    kernel = _kernel("hamming", 1, dims=96, rows=200)
    [(_, plane)] = kernel._planes
    assert plane.shape == (kernel.rows, kernel.cells)
    assert plane.flags.c_contiguous
    assert plane.nbytes == 4 * kernel.rows * kernel.cells


def test_flat_scan_geometry_compiles_float32_planes_in_every_bank():
    rng = np.random.default_rng(11)
    index = FerexIndex(dims=512, metric="hamming", bits=1)
    index.add(rng.integers(0, 2, size=(8192, 512)))
    index.search(rng.integers(0, 2, size=(1, 512)), k=10)
    banks = index.backend._banks
    assert len(banks) == 8
    for bank in banks:
        kernel = bank.engine.quantized_kernel().kernel
        assert (kernel.rows, kernel.cells) == (1024, 512)
        assert [p.dtype for _, p in kernel._planes] == [F32]
