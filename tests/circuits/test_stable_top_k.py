"""Property: ``stable_top_k`` is exactly the stable-argsort prefix.

:func:`repro.circuits.lta.stable_top_k` is the one selection the batch
LTA, the bank shortlist and the software backends share, so it must
agree with ``np.argsort(kind="stable")[:, :k]`` entry for entry —
including exact ties (where an ``argpartition`` alone would pick an
arbitrary tied column), ``+inf`` columns (masked rows) and empty
batches.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.lta import stable_top_k


def _reference(values, k):
    return np.argsort(values, axis=1, kind="stable")[:, :k]


@st.composite
def tied_blocks(draw):
    """(values, k): small integer-valued floats, so most rows hold
    several exact ties, with some entries masked to ``+inf``."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 40))
    k = draw(st.integers(1, m))
    levels = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.integers(-levels, levels, size=(n, m)).astype(float)
    masked = draw(st.sampled_from(["none", "columns", "entries"]))
    if masked == "columns":
        values[:, rng.random(m) < 0.3] = np.inf
    elif masked == "entries":
        values[rng.random((n, m)) < 0.3] = np.inf
    return values, k


@given(tied_blocks())
@settings(max_examples=400, deadline=None)
def test_equals_stable_argsort_prefix(block):
    values, k = block
    picks = stable_top_k(values, k)
    assert picks.shape == (len(values), k)
    assert np.array_equal(picks, _reference(values, k))


@given(
    n=st.integers(0, 4),
    m=st.integers(1, 30),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_equals_stable_argsort_prefix_on_distinct_floats(n, m, data):
    k = data.draw(st.integers(1, m))
    values = np.asarray(
        data.draw(
            st.lists(
                st.floats(allow_nan=False, width=64),
                min_size=n * m,
                max_size=n * m,
            )
        ),
        dtype=float,
    ).reshape(n, m)
    assert np.array_equal(stable_top_k(values, k), _reference(values, k))


def test_seeded_sweep_at_bank_widths():
    """Bank-sized rows (up to 2048 columns) with k from 1 to m, on
    quantised currents like the kernel's: ties at every boundary."""
    rng = np.random.default_rng(500)
    for _ in range(500):
        m = int(rng.choice([2, 9, 64, 1024, 2048]))
        k = int(rng.choice([1, 2, 10, max(1, m - 1), m]))
        values = rng.integers(0, 8, size=(int(rng.integers(0, 5)), m))
        values = values * 2.0**-30
        if rng.random() < 0.5:
            values[:, rng.random(m) < 0.2] = np.inf
        assert np.array_equal(stable_top_k(values, k), _reference(values, k))
