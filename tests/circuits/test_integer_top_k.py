"""Property: ``integer_top_k`` is exactly the masked stable-argsort prefix.

:func:`repro.circuits.lta.integer_top_k` selects the compiled kernel's
winners from unique int64 keys ``score << b | column``; it must agree
with ``np.argsort(np.where(active, scores, inf), kind="stable")[:, :k]``
entry for entry — heavy ties, negative scores, any column count (one
key block or many), any mask, every ``k`` up to the competing columns,
empty batches, and scores at the key's 52-bit bound.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.lta import integer_top_k


def _reference(scores, k, active):
    if active is None:
        active = np.ones(scores.shape[1], dtype=bool)
    masked = np.where(active, scores, np.inf)
    return np.argsort(masked, axis=1, kind="stable")[:, :k]


@st.composite
def score_blocks(draw):
    """(scores, active): few distinct integer levels, so most rows hold
    several exact ties, around a random (possibly negative) offset."""
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 100_000))
    levels = draw(st.integers(1, 6))
    offset = draw(st.integers(-(1 << 40), 1 << 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scores = offset + rng.integers(-levels, levels, size=(n, m))
    mask = draw(st.sampled_from(["none", "all", "random"]))
    if mask == "none":
        active = None
    elif mask == "all":
        active = np.ones(m, dtype=bool)
    else:
        active = rng.random(m) < 0.6
        active[rng.integers(m)] = True  # never an empty competition
    return scores.astype(np.int64), active


@given(score_blocks(), st.data())
@settings(max_examples=300, deadline=None)
def test_equals_masked_stable_argsort_prefix(block, data):
    scores, active = block
    n_active = scores.shape[1] if active is None else int(active.sum())
    k = data.draw(st.integers(1, n_active))
    picks = integer_top_k(scores, k, active)
    assert picks.shape == (len(scores), k)
    assert np.array_equal(picks, _reference(scores, k, active))


def test_every_k_up_to_the_competing_columns():
    rng = np.random.default_rng(4)
    scores = rng.integers(-3, 3, size=(5, 23)).astype(np.int64)
    active = rng.random(23) < 0.5
    active[0] = True
    for k in range(1, int(active.sum()) + 1):
        assert np.array_equal(
            integer_top_k(scores, k, active), _reference(scores, k, active)
        )


@given(seed=st.integers(0, 2**32 - 1), data=st.data())
@settings(max_examples=40, deadline=None)
def test_bank_wide_blocks(seed, data):
    # Bank-sized rows: np.partition leaves a wide prefix unordered, so
    # this is where the k-wide sort is needed.
    rng = np.random.default_rng(seed)
    m = data.draw(st.sampled_from([1000, 1024, 1500]))
    scores = rng.integers(-40, 40, size=(4, m)).astype(np.int64)
    active = rng.random(m) < 6 / 7
    k = data.draw(st.integers(1, int(active.sum())))
    picks = integer_top_k(scores, k, active)
    assert np.array_equal(picks, _reference(scores, k, active))


def test_empty_batch():
    scores = np.empty((0, 9), dtype=np.int64)
    picks = integer_top_k(scores, 4, np.ones(9, dtype=bool))
    assert picks.shape == (0, 4)


@given(
    n=st.integers(0, 3),
    k=st.integers(1, 4096),
    seed=st.integers(0, 2**32 - 1),
    masked=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_scores_at_the_key_bound_select_exactly(n, k, seed, masked):
    # 4096 columns are four key blocks of 10 column bits each, so
    # scores near 2**52 fill all 62 bits of every key.
    rng = np.random.default_rng(seed)
    m = 4096
    base = rng.choice([-1, 1]) * ((1 << 52) - 64)
    scores = (base + rng.integers(-4, 4, size=(n, m))).astype(np.int64)
    active = rng.random(m) < 0.7 if masked else None
    if active is not None:
        k = min(k, int(active.sum()))
    picks = integer_top_k(scores, k, active)
    assert np.array_equal(picks, _reference(scores, k, active))

