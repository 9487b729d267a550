"""The quantized integer kernel: overflow bounds and exactness.

The kernel's whole contract is *exact* arithmetic: dtype selection must
never let a reduction wrap (it must refuse instead), and the dgemm and
the literal gather + blocked reduction must agree bit-for-bit.
"""

import numpy as np
import pytest

from repro.core.kernel import (
    EXACT_FLOAT_BITS,
    KernelOverflowError,
    LUTKernel,
    accumulator_bound,
    select_accumulator,
    select_quantum,
)


class TestAccumulatorSelection:
    def test_bound_is_worst_case_mixed_sign_sum(self):
        assert accumulator_bound(10, 7) == 2 * 10 * 7

    def test_bound_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            accumulator_bound(-1, 7)
        with pytest.raises(ValueError):
            accumulator_bound(1, -7)

    @pytest.mark.parametrize("dims", [1, 16, 1024, 4096, 16384])
    def test_never_wraps_for_paper_geometries(self, dims):
        """The issue's floor: dims up to 16384 at 3 bits.  The largest
        3-bit per-element metric entry is 49 (squared L2 of 7), and the
        selected dtype must hold the bound with room for the sum."""
        max_entry = 49
        dtype = select_accumulator(dims, max_entry)
        bound = accumulator_bound(dims, max_entry)
        assert bound < np.iinfo(dtype).max
        # Explicit no-wrap check: reduce the worst-case row in the
        # selected dtype and compare against python's exact integers.
        worst = np.full(dims, max_entry, dtype=dtype)
        assert int(worst.sum(dtype=dtype)) == dims * max_entry

    def test_small_geometries_stay_int32(self):
        assert select_accumulator(16384, 49) == np.dtype(np.int32)

    def test_large_geometries_promote_to_int64(self):
        assert select_accumulator(1 << 24, 1 << 8) == np.dtype(np.int64)

    def test_beyond_exact_range_raises_clearly(self):
        with pytest.raises(KernelOverflowError, match="53-bit"):
            select_accumulator(1 << 30, 1 << 30)

    def test_property_dtype_always_holds_bound(self):
        """Randomised sweep: whenever selection succeeds the bound fits
        the dtype; whenever it refuses the bound is beyond 2**53."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            cells = int(rng.integers(1, 1 << 20))
            max_entry = int(rng.integers(0, 1 << 40))
            bound = accumulator_bound(cells, max_entry)
            try:
                dtype = select_accumulator(cells, max_entry)
            except KernelOverflowError:
                assert bound >= 1 << EXACT_FLOAT_BITS
            else:
                assert bound < 1 << EXACT_FLOAT_BITS
                assert bound < np.iinfo(dtype).max


class TestQuantumSelection:
    def test_quantum_is_a_power_of_two(self):
        q = select_quantum(1e-6, 1024, 1e-7)
        mantissa, _ = np.frexp(q)
        assert mantissa == 0.5

    def test_reduction_stays_exact_at_the_selected_quantum(self):
        q = select_quantum(3.7e-6, 16384, 1e-7)
        bound = accumulator_bound(16384, int(np.ceil(3.7e-6 / q)))
        assert bound < 1 << EXACT_FLOAT_BITS

    def test_zero_peak_returns_the_resolution_ceiling(self):
        assert select_quantum(0.0, 64, 1e-7) == 1e-7 * 2.0**-24

    def test_oversized_geometry_raises_instead_of_coarsening(self):
        # Forcing the needed quantum above the resolution ceiling must
        # refuse, not silently produce a lossy LUT.
        with pytest.raises(KernelOverflowError, match="resolution floor"):
            select_quantum(1e6, 1 << 40, 1e-7)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            select_quantum(1.0, 0, 1e-7)
        with pytest.raises(ValueError):
            select_quantum(1.0, 4, 0.0)


def _random_kernel(rng, rows=13, cells=9, n_values=4, n_symbols=5):
    codes = rng.integers(0, n_symbols, size=(rows, cells))
    lut = rng.integers(-50, 50, size=(n_values, n_symbols))
    return LUTKernel(codes, lut)


class TestLUTKernel:
    def test_gather_and_dgemm_agree_bitwise(self, rng):
        kernel = _random_kernel(rng)
        value_index = rng.integers(0, kernel.n_values, size=(37, 9))
        dgemm = kernel.scores(value_index)
        gather = kernel.scores_gather(value_index)
        assert np.array_equal(dgemm, gather)
        # Bit-identical across block sizes too (exactness => order
        # independence).
        assert np.array_equal(gather, kernel.scores_gather(value_index, 3))

    def test_scores_match_bruteforce(self, rng):
        kernel = _random_kernel(rng, rows=5, cells=4)
        value_index = rng.integers(0, kernel.n_values, size=(6, 4))
        expected = np.array(
            [
                [
                    sum(
                        kernel.lut[value_index[q, c], kernel.codes[r, c]]
                        for c in range(4)
                    )
                    for r in range(5)
                ]
                for q in range(6)
            ],
            dtype=float,
        )
        assert np.array_equal(kernel.scores(value_index), expected)

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError, match="symbol range"):
            LUTKernel(np.array([[0, 3]]), np.zeros((2, 3), dtype=int))

    def test_rejects_float_lut(self):
        with pytest.raises(ValueError, match="integer"):
            LUTKernel(np.zeros((2, 2), int), np.zeros((2, 2)))

    def test_rejects_out_of_range_value_index(self, rng):
        kernel = _random_kernel(rng, n_values=3)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            kernel.scores(np.full((2, 9), 3))

    def test_rejects_wrong_width_value_index(self, rng):
        kernel = _random_kernel(rng, cells=9)
        with pytest.raises(ValueError, match="value index"):
            kernel.scores(np.zeros((2, 8), dtype=int))

    def test_oversized_lut_refuses_at_construction(self):
        codes = np.zeros((2, 1 << 10), dtype=int)
        lut = np.full((2, 1), 1 << 44, dtype=np.int64)
        with pytest.raises(KernelOverflowError):
            LUTKernel(codes, lut)
