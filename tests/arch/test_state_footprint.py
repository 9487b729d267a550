"""The crossbar stores what was written and derives the rest.

Footprint and stored-versus-derived contract of :class:`FeReXArray`:
an ideal array holds its levels (one narrow integer per cell) and a
per-row drift vector, not dense float copies of the device state; a
sampled variation is adopted, not copied; ``vth`` / ``resistance`` are
pure functions of what is stored.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.arch.crossbar import FeReXArray
from repro.core.engine import FeReX
from repro.devices.tech import DEFAULT_TECH
from repro.devices.variation import VariationSampler, nominal_variation


def traced_bytes(build):
    """Heap bytes still held once ``build()`` returned, and its result
    (kept alive by the caller)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def disturbing_tech():
    """A write voltage whose half-select stack exceeds the safe
    fraction of the coercive voltage, so inhibited rows drift."""
    driver = dataclasses.replace(DEFAULT_TECH.driver, write_voltage=6.0)
    return dataclasses.replace(DEFAULT_TECH, driver=driver)


class TestFootprint:
    def test_ideal_bank_holds_two_bytes_per_cell_at_most(self):
        rows = cols = 1024
        levels = np.random.default_rng(0).integers(0, 3, size=(rows, cols))

        def build():
            array = FeReXArray(rows, cols)
            array.program_rows(0, levels)
            return array

        held, array = traced_bytes(build)
        assert held <= 2 * rows * cols
        assert array.levels.dtype.itemsize == 1

    @pytest.mark.parametrize(
        "metric, bits", [("hamming", 1), ("manhattan", 2)]
    )
    def test_engine_stays_within_twice_its_facts(self, metric, bits):
        engine = FeReX(metric=metric, bits=bits, dims=256)
        codes = np.random.default_rng(1).integers(
            0, 1 << bits, size=(512, 256)
        )

        def build():
            engine.allocate(512)
            engine.write_rows(0, codes)

        held, _ = traced_bytes(build)
        facts = engine.array.levels.nbytes + engine.stored.nbytes
        assert held <= 2 * facts
        assert engine.stored.dtype.itemsize == 1
        assert np.array_equal(engine.stored, codes)


class TestStoredVersusDerived:
    def test_sampled_variation_is_adopted_not_copied(self):
        sample = VariationSampler(seed=4).sample_array(6, 5)
        array = FeReXArray(6, 5, variation=sample)
        assert array.variation.vth_offset is sample.vth_offset
        assert array.variation.r_factor is sample.r_factor

    def test_vth_and_resistance_are_functions_of_the_stored_facts(self):
        tech = disturbing_tech()
        fefet = tech.fefet
        sample = VariationSampler(seed=4).sample_array(6, 5)
        array = FeReXArray(6, 5, tech=tech, variation=sample)
        levels = np.random.default_rng(2).integers(0, 3, size=(3, 5))
        array.program_rows(1, levels)
        array.erase_row(2)

        nominal = np.full((6, 5), fefet.vth_low + fefet.memory_window)
        nominal[1] = [fefet.vth_level(lv) for lv in levels[0]]
        nominal[3] = [fefet.vth_level(lv) for lv in levels[2]]
        # Half-select events per row: the 3-row slice write pulses
        # twice per row (a written row sits out its own two), then the
        # erase pulses once (row 2 sits it out).
        per_event = array.DISTURB_DRIFT_PER_VOLT * (
            0.5 * tech.driver.write_voltage
            - array.DISTURB_SAFE_FRACTION * fefet.coercive_voltage
        )
        drift = -(per_event * np.array([6.0, 4.0, 4.0, 4.0, 6.0, 6.0]))
        drift -= per_event * np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(
            array.vth, nominal + sample.vth_offset + drift[:, None]
        )
        assert np.array_equal(
            array.resistance, tech.cell.resistance * sample.r_factor
        )

    def test_nominal_constants_reject_in_place_writes(self):
        variation = nominal_variation(4, 3)
        array = FeReXArray(4, 3)
        for constants in (variation, array.variation):
            with pytest.raises(ValueError):
                constants.vth_offset[0, 0] = 0.1
            with pytest.raises(ValueError):
                constants.r_factor[1, 2] = 1.1
            with pytest.raises(ValueError):
                constants.row_gain[0] = 1.1


class TestDisturbIsRowUniform:
    def test_row_loop_and_slice_write_agree_under_disturb(self):
        tech = disturbing_tech()
        levels = np.random.default_rng(3).integers(0, 3, size=(3, 5))
        fast = FeReXArray(6, 5, tech=tech)
        fast.program_rows(2, levels)
        slow = FeReXArray(6, 5, tech=tech)
        for i in range(3):
            slow.program_row(2 + i, levels[i])
        assert fast.disturb_violations == slow.disturb_violations > 0
        assert np.allclose(fast.vth, slow.vth, rtol=0, atol=1e-12)
        nominal = np.array(
            [tech.fefet.vth_level(lv) for lv in range(3)]
            + [tech.fefet.vth_low + tech.fefet.memory_window]
        )
        drift = fast.vth - nominal[fast.levels]
        assert np.allclose(drift, drift[:, :1], rtol=0, atol=1e-15)
        # Rows inside the slice were fully selected for their own two
        # pulses, so they drifted less than the rows outside it.
        assert drift[0, 0] < drift[2, 0] < 0

    def test_a_drifted_array_never_compiles_a_kernel(self):
        engine = FeReX(
            metric="hamming", bits=1, dims=8, tech=disturbing_tech()
        )
        engine.program(np.random.default_rng(4).integers(0, 2, size=(4, 8)))
        assert engine.array.disturb_violations > 0
        assert engine.quantized_kernel() is None
