"""Property test for the crossbar's one batch select.

``FeReXArray._select`` reads the ``k`` winner-masking LTA rounds off a
single stable argsort of the offset-adjusted competition currents.
The serial flow — :meth:`LoserTakeAll.decide_k` /
:meth:`FeReXArray.search` in a mask-the-winner loop — stays the
round-by-round hardware reference; this file pins the two against each
other where they could plausibly diverge: non-zero comparator offsets,
exact current ties, ``active_rows`` masks, and ``k`` all the way up to
the number of competing rows.  Seeded sweeps, so failures replay.
"""

import numpy as np
import pytest

from repro.arch.crossbar import FeReXArray
from repro.core.engine import FeReX
from repro.devices.variation import nominal_variation

ROWS = 9
N_QUERIES = 12


def _array_with_offsets(offsets):
    variation = nominal_variation(ROWS, 2)
    variation.lta_offset = np.asarray(offsets, dtype=float)
    return FeReXArray(rows=ROWS, physical_cols=2, variation=variation)


def _tied_currents(rng):
    """(N_QUERIES, ROWS) currents drawn from a 3-value alphabet, so
    every query holds several exact ties."""
    return rng.choice([1e-7, 2e-7, 3e-7], size=(N_QUERIES, ROWS))


def _mask(rng):
    active = rng.random(ROWS) < 0.6
    active[rng.integers(ROWS)] = True  # never an empty competition
    return active


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "offset_kind", ["zero", "sampled", "tie_making"]
)
@pytest.mark.parametrize("masked", [False, True])
def test_select_equals_decide_k_round_by_round(seed, offset_kind, masked):
    rng = np.random.default_rng(1000 * seed + masked)
    offsets = {
        "zero": np.zeros(ROWS),
        "sampled": rng.normal(0.0, 5e-8, size=ROWS),
        # Offsets that are exact multiples of the current step turn
        # *different* currents into equal effective ones.
        "tie_making": rng.integers(-1, 2, size=ROWS) * 1e-7,
    }[offset_kind]
    array = _array_with_offsets(offsets)
    currents = _tied_currents(rng)
    active = _mask(rng) if masked else None
    n_competing = ROWS if active is None else int(active.sum())

    for k in range(1, n_competing + 1):
        winners = array._select(currents, active, k)
        assert winners.shape == (N_QUERIES, k)
        for i, row in enumerate(currents):
            compete = row if active is None else np.where(active, row, np.inf)
            serial = [d.winner for d in array._lta.decide_k(compete, k)]
            assert winners[i].tolist() == serial


def _serial_k(array, sl, dl, k, active):
    """The serial mask-the-winner flow over an initial competition
    mask (``FeReXArray.search_k`` starts from all rows)."""
    active = active.copy()
    winners = []
    for _ in range(k):
        winner = array.search(sl, dl, active).winner
        winners.append(winner)
        active[winner] = False
    return winners


@pytest.mark.parametrize("metric", ["hamming", "manhattan"])
@pytest.mark.parametrize("seed", [3, 11, 29])
def test_batch_winners_equal_serial_under_sampled_variation(metric, seed):
    """End to end on a varied array (non-zero ``lta_offset``), with
    duplicate stored rows for near-ties, a competition mask, and ``k``
    up to the competing-row count — through both bias forms."""
    rng = np.random.default_rng(seed)
    engine = FeReX(metric=metric, bits=2, dims=6, seed=seed)
    stored = rng.integers(0, 4, size=(ROWS, 6))
    stored[5] = stored[1]
    stored[7] = stored[2]
    engine.program(stored)
    array = engine.array
    assert np.any(array.variation.lta_offset)
    queries = rng.integers(0, 4, size=(N_QUERIES, 6))
    queries[0] = stored[1]
    active = _mask(rng)
    k = int(active.sum())

    by_values = engine.search_k_batch(queries, k, active_rows=active)
    sl = engine._search_volt_lut[queries].reshape(N_QUERIES, -1)
    dl = engine._search_mult_lut[queries].reshape(N_QUERIES, -1)
    by_matrix = array.search_k_batch(sl, dl, k, active_rows=active)
    for i in range(N_QUERIES):
        serial = _serial_k(array, sl[i], dl[i], k, active)
        assert by_values.winners[i].tolist() == serial
        assert by_matrix.winners[i].tolist() == serial
    # Unmasked, against the public serial search_k itself.
    full = engine.search_k_batch(queries, ROWS)
    for i, query in enumerate(queries):
        serial = [r.winner for r in engine.search_k(query, ROWS)]
        assert full.winners[i].tolist() == serial
