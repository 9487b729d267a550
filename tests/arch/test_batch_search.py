"""Vectorised batch search: equivalence with the sequential path."""

import numpy as np
import pytest

from repro.core.engine import FeReX


@pytest.fixture
def engine(rng):
    eng = FeReX(metric="hamming", bits=2, dims=8)
    eng.program(rng.integers(0, 4, size=(12, 8)))
    return eng


class TestBatchEquivalence:
    def test_winners_match_sequential(self, engine, rng):
        queries = rng.integers(0, 4, size=(20, 8))
        batch = engine.search_batch(queries)
        sequential = [engine.search(q).winner for q in queries]
        assert batch.winners.tolist() == sequential

    def test_row_units_match_sequential(self, engine, rng):
        queries = rng.integers(0, 4, size=(10, 8))
        batch = engine.search_batch(queries)
        for i, q in enumerate(queries):
            assert np.allclose(
                batch.row_units[i],
                engine.search(q).hardware_distances,
                rtol=1e-9,
            )

    def test_with_variation(self, rng):
        eng = FeReX(metric="hamming", bits=2, dims=8, seed=3)
        eng.program(rng.integers(0, 4, size=(12, 8)))
        queries = rng.integers(0, 4, size=(15, 8))
        batch = eng.search_batch(queries)
        sequential = [eng.search(q).winner for q in queries]
        assert batch.winners.tolist() == sequential

    def test_chunking_irrelevant(self, engine, rng):
        queries = rng.integers(0, 4, size=(9, 8))
        sl = engine._search_volt_lut[queries].reshape(9, -1)
        dl = engine._search_mult_lut[queries].reshape(9, -1)
        array = engine.array
        array.kernel_enabled = False  # blocks only exist on the float path
        cells = array.rows * array.physical_cols
        array.BLOCK_CELLS = 2 * cells  # 2 queries per block
        a = array.search_batch(sl, dl)
        array.BLOCK_CELLS = 100 * cells  # one block
        b = array.search_batch(sl, dl)
        assert np.array_equal(a.winners, b.winners)
        assert np.allclose(a.row_units, b.row_units)


class TestBatchAccounting:
    def test_totals_scale_with_queries(self, engine, rng):
        queries = rng.integers(0, 4, size=(6, 8))
        batch = engine.search_batch(queries)
        assert batch.n_queries == 6
        assert batch.total_time == pytest.approx(
            6 * batch.timing_per_query.total
        )
        assert batch.total_energy == pytest.approx(
            6 * batch.energy_per_query.total
        )


class TestBatchValidation:
    def test_shape_checked(self, engine):
        with pytest.raises(ValueError):
            engine.search_batch(np.zeros((3, 5), dtype=int))

    def test_range_checked(self, engine):
        with pytest.raises(ValueError):
            engine.search_batch(np.full((2, 8), 4))

    def test_requires_program(self):
        eng = FeReX(metric="hamming", bits=2, dims=4)
        with pytest.raises(RuntimeError):
            eng.search_batch(np.zeros((1, 4), dtype=int))
        with pytest.raises(RuntimeError):
            eng.search_k_batch(np.zeros((1, 4), dtype=int), 1)

    def test_mismatched_sl_dl_rejected(self, engine):
        sl = np.zeros((2, engine.physical_cols))
        dl = np.ones((3, engine.physical_cols), dtype=int)
        with pytest.raises(ValueError):
            engine.array.search_batch(sl, dl)

    def test_value_index_validated(self, engine):
        arr = engine.array
        sl = engine.cell.sl_alphabet
        dl = engine.cell.dl_alphabet
        with pytest.raises(ValueError):  # wrong width
            arr.search_batch_values(sl, dl, np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):  # value outside the alphabet
            arr.search_batch_values(
                sl, dl, np.full((2, arr.cells), sl.shape[0])
            )


class TestBatchEdgeCases:
    def test_empty_batch(self, engine):
        batch = engine.search_batch(
            np.empty((0, 8), dtype=int)
        )
        assert batch.n_queries == 0
        assert batch.winners.shape == (0,)
        assert batch.row_units.shape == (0, engine.array.rows)
        assert batch.total_time == 0.0
        assert batch.total_energy == 0.0

    def test_empty_batch_search_k(self, engine):
        batch = engine.search_k_batch(np.empty((0, 8), dtype=int), 2)
        assert batch.winners.shape == (0, 2)

    def test_single_row_array(self, rng):
        eng = FeReX(metric="hamming", bits=2, dims=8)
        eng.program(rng.integers(0, 4, size=(1, 8)))
        batch = eng.search_batch(rng.integers(0, 4, size=(5, 8)))
        assert batch.winners.tolist() == [0] * 5
        # The serial path guarantees the "lta" energy key on 1-row
        # arrays; the batch path must too.
        assert "lta" in batch.energy_per_query.components

    def test_chunk_below_one_clamped(self, engine, rng):
        """A block budget smaller than one query still evaluates one
        query per block."""
        queries = rng.integers(0, 4, size=(5, 8))
        sl = engine._search_volt_lut[queries].reshape(5, -1)
        dl = engine._search_mult_lut[queries].reshape(5, -1)
        array = engine.array
        array.kernel_enabled = False  # blocks only exist on the float path
        c = array.search_batch(sl, dl)
        array.BLOCK_CELLS = 1
        a = array.search_batch(sl, dl)
        array.BLOCK_CELLS = 0
        b = array.search_batch(sl, dl)
        assert np.array_equal(a.winners, c.winners)
        assert np.array_equal(b.winners, c.winners)
        assert np.allclose(a.row_units, c.row_units)

    def test_search_k_batch_rejects_bad_k(self, engine, rng):
        queries = rng.integers(0, 4, size=(2, 8))
        with pytest.raises(ValueError):
            engine.search_k_batch(queries, 0)
        with pytest.raises(ValueError):
            engine.search_k_batch(queries, engine.array.rows + 1)


class TestActiveRowMasking:
    """Batch-path winner masking: parity with the serial masked search."""

    def test_masked_rows_never_win(self, engine, rng):
        queries = rng.integers(0, 4, size=(20, 8))
        active = np.ones(engine.array.rows, dtype=bool)
        banned = {1, 4, 7}
        active[list(banned)] = False
        batch = engine.search_batch(queries, active_rows=active)
        assert not set(batch.winners.tolist()) & banned

    def test_matches_serial_masked_search(self, engine, rng):
        queries = rng.integers(0, 4, size=(12, 8))
        active = np.ones(engine.array.rows, dtype=bool)
        active[[0, 2, 9]] = False
        batch = engine.search_batch(queries, active_rows=active)
        for i, q in enumerate(queries):
            sl, dl = engine._query_bias(q)
            serial = engine.array.search(sl, dl, active_rows=active)
            assert batch.winners[i] == serial.winner

    def test_search_k_batch_masked(self, engine, rng):
        queries = rng.integers(0, 4, size=(8, 8))
        active = np.ones(engine.array.rows, dtype=bool)
        active[:6] = False  # 6 of 12 rows out of the competition
        batch = engine.search_k_batch(queries, 3, active_rows=active)
        assert batch.winners.min() >= 6
        # winners distinct per query
        for row in batch.winners:
            assert len(set(row.tolist())) == 3

    def test_row_units_unaffected_by_mask(self, engine, rng):
        """Masking disables LTA branches; the analog readings stay."""
        queries = rng.integers(0, 4, size=(5, 8))
        active = np.ones(engine.array.rows, dtype=bool)
        active[3] = False
        masked = engine.search_batch(queries, active_rows=active)
        unmasked = engine.search_batch(queries)
        assert np.array_equal(masked.row_units, unmasked.row_units)

    def test_k_bounded_by_competing_rows(self, engine, rng):
        queries = rng.integers(0, 4, size=(2, 8))
        active = np.zeros(engine.array.rows, dtype=bool)
        active[:4] = True
        engine.search_k_batch(queries, 4, active_rows=active)  # fine
        with pytest.raises(ValueError):
            engine.search_k_batch(queries, 5, active_rows=active)

    def test_mask_shape_validated(self, engine, rng):
        queries = rng.integers(0, 4, size=(2, 8))
        with pytest.raises(ValueError):
            engine.search_batch(
                queries, active_rows=np.ones(3, dtype=bool)
            )

    def test_all_masked_rejected(self, engine, rng):
        """An empty competition must fail loudly, not crown row 0."""
        queries = rng.integers(0, 4, size=(2, 8))
        dead = np.zeros(engine.array.rows, dtype=bool)
        with pytest.raises(ValueError):
            engine.search_batch(queries, active_rows=dead)
        with pytest.raises(ValueError):
            engine.search_k_batch(queries, 1, active_rows=dead)
        sl, dl = engine._query_bias(queries[0])
        with pytest.raises(ValueError):
            engine.array.search(sl, dl, active_rows=dead)


class TestBiasTableCache:
    def test_cache_invalidated_by_reprogram(self, engine, rng):
        queries = rng.integers(0, 4, size=(4, 8))
        before = engine.search_batch(queries)
        # Re-programming the array must invalidate the cached bias
        # table, not serve stale currents.
        engine.array.program_row(0, engine.array.levels[3])
        after = engine.search_batch(queries)
        serial = [engine.search(q).winner for q in queries]
        assert after.winners.tolist() == serial
        assert not np.array_equal(before.row_units, after.row_units)
