"""Property: ``symbol_codes`` is a row-wise ``np.unique``, without the
sort.

The kernel compile names every stored cell state by a dense code.
:func:`repro.core.kernel.symbol_codes` reads it off a mixed-radix key
(presence table below :data:`DENSE_SYMBOL_SPACE`, 1-D sort above it,
leading-column fold where the key space would overflow int64); the
reference here is the structured ``np.unique(state, axis=0)`` it
replaced.  Codes, symbol rows (dtype included) and the erased row's
code must all be identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.kernel import DENSE_SYMBOL_SPACE, symbol_codes
from repro.devices.cell import compile_current_lut
from repro.index import FerexIndex


def _reference(state):
    _, first, inverse = np.unique(
        state, axis=0, return_index=True, return_inverse=True
    )
    return inverse.reshape(-1), state[first]


def _assert_matches_reference(state, n_levels):
    codes, symbols = symbol_codes(state, n_levels)
    ref_codes, ref_symbols = _reference(state)
    assert codes.dtype == np.int64
    assert np.array_equal(codes, ref_codes)
    assert symbols.dtype == ref_symbols.dtype
    assert np.array_equal(symbols, ref_symbols)
    return codes, symbols


def _erased_first(rng, n, k, n_levels, used):
    """(n + 1, k) int8 state: the erased row, then ``n`` rows drawn
    from the levels ``-1 .. used - 1``."""
    body = rng.integers(-1, used, size=(n, k)).astype(np.int8)
    return np.concatenate([np.full((1, k), -1, np.int8), body])


@given(
    n_levels=st.integers(1, 8),
    k=st.integers(1, 16),
    n=st.integers(0, 300),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_equals_rowwise_unique(n_levels, k, n, data):
    used = data.draw(st.integers(0, n_levels))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    state = _erased_first(rng, n, k, n_levels, used)
    codes, _ = _assert_matches_reference(state, n_levels)
    assert codes[0] == 0  # the erased row is the smallest key


@pytest.mark.parametrize(
    "n_levels,k",
    [
        (1, 20),  # 2**20: the largest presence table
        (1, 21),  # 2**21: the 1-D sort
        (3, 10),  # 4**10 == 2**20
        (3, 11),
        (2, 12),  # 3**12 < 2**20
        (2, 13),  # 3**13 > 2**20
    ],
)
def test_both_sides_of_the_dense_table(n_levels, k):
    assert ((n_levels + 1) ** k <= DENSE_SYMBOL_SPACE) == (
        (n_levels, k) in {(1, 20), (3, 10), (2, 12)}
    )
    rng = np.random.default_rng(n_levels * 100 + k)
    state = _erased_first(rng, 500, k, n_levels, n_levels)
    # The all-highest row reaches the top of the key space.
    state[-1] = n_levels - 1
    _assert_matches_reference(state, n_levels)


@pytest.mark.parametrize("n_levels,k", [(8, 21), (8, 64), (1, 70)])
def test_fanout_beyond_int64_folds(n_levels, k):
    """``(n_levels + 1)**k`` exceeds int64: the leading columns fold
    through their dense rank instead of overflowing the key."""
    assert (n_levels + 1) ** k > np.iinfo(np.int64).max
    rng = np.random.default_rng(k)
    state = _erased_first(rng, 400, k, n_levels, n_levels)
    # Shared prefixes and repeated rows, so the fold's ranks collide.
    state[1::4, : k // 2] = state[2, : k // 2]
    state[3::5] = state[7]
    state[-1] = n_levels - 1
    _assert_matches_reference(state, n_levels)


def test_rejects_levels_outside_the_alphabet():
    with pytest.raises(ValueError):
        symbol_codes(np.array([[0, 3]], np.int8), 3)
    with pytest.raises(ValueError):
        symbol_codes(np.array([[-2, 0]], np.int8), 3)
    with pytest.raises(ValueError):
        symbol_codes(np.zeros(4, np.int8), 3)


CONFIGS = [
    (metric, bits, encoder)
    for metric in ("hamming", "manhattan", "euclidean")
    for bits in (1, 2, 3)
    for encoder in ("auto", "constructive")
]


@pytest.mark.parametrize("metric,bits,encoder", CONFIGS)
def test_engine_banks_compile_the_reference_codes(metric, bits, encoder):
    """Every bank of an index — partial prefixes of a doubling
    allocation, tombstones, then compact — compiles the codes, symbols
    and erased code of a row-wise ``np.unique`` over its cell state, and
    the current table of those symbols."""
    rng = np.random.default_rng(bits * 10 + len(metric))
    dims = 6
    index = FerexIndex(
        dims=dims, metric=metric, bits=bits, bank_rows=16, encoder=encoder
    )
    queries = rng.integers(0, 1 << bits, size=(3, dims))
    for step in ("partial", "tombstones", "compact"):
        if step == "partial":
            index.add(rng.integers(0, 1 << bits, size=(21, dims)))
        elif step == "tombstones":
            index.remove([0, 5, 17, 20])
        else:
            index.compact()
        index.search(queries, k=2)
        for engine in index.backend.engines:
            array = engine.array
            compiled = engine.quantized_kernel()
            assert compiled is not None
            k = array.cell_fanout
            prefix = compiled.codes.shape[0]
            assert not np.any(array.levels[prefix:] >= 0)
            erased = np.full((1, k), -1, dtype=array.levels.dtype)
            cells = array.levels[:prefix].reshape(prefix * array.cells, k)
            state = np.concatenate([erased, cells])
            codes, symbols = _assert_matches_reference(
                state, array.tech.fefet.n_vth_levels
            )
            assert compiled.erased == codes[0]
            assert np.array_equal(
                compiled.codes, codes[1:].reshape(prefix, array.cells)
            )
            sl, dl = array._alphabet
            raw = compile_current_lut(
                sl.reshape(len(sl), array.cells, k)[:, 0, :],
                dl.reshape(len(dl), array.cells, k)[:, 0, :],
                array._vth_lut[symbols],
                array.tech,
            )
            assert np.array_equal(compiled.raw_currents, raw)
