"""FeFET I-V model: operating regions."""

import math

import pytest

from repro.devices.fefet import drain_current
from repro.devices.tech import THERMAL_VOLTAGE, FeFETParams


PARAMS = FeFETParams()


class TestDrainCurrent:
    def test_zero_vds_gives_zero_current(self):
        assert drain_current(1.0, 0.0, 0.5) == 0.0

    def test_negative_vds_rejected(self):
        with pytest.raises(ValueError):
            drain_current(1.0, -0.1, 0.5)

    def test_off_state_is_tiny(self):
        i = drain_current(0.0, 0.5, 1.4, PARAMS)
        assert i < 1e-9

    def test_off_floor_respected(self):
        i = drain_current(-5.0, 0.5, 1.4, PARAMS)
        assert i == pytest.approx(PARAMS.i_off_floor)

    def test_on_state_orders_of_magnitude_above_off(self):
        on = drain_current(1.5, 0.5, 0.2, PARAMS)
        off = drain_current(0.1, 0.5, 1.4, PARAMS)
        assert on / off > 1e4

    def test_linear_region_roughly_linear_in_vds(self):
        vth, vgs = 0.2, 1.4
        i1 = drain_current(vgs, 0.05, vth, PARAMS)
        i2 = drain_current(vgs, 0.10, vth, PARAMS)
        assert i2 / i1 == pytest.approx(2.0, rel=0.05)

    def test_saturation_region_flat_in_vds(self):
        vth, vgs = 0.2, 0.8
        vov = vgs - vth
        i1 = drain_current(vgs, vov + 0.1, vth, PARAMS)
        i2 = drain_current(vgs, vov + 0.5, vth, PARAMS)
        assert i2 / i1 < 1.05

    def test_monotone_in_vgs(self):
        last = 0.0
        for step in range(20):
            vgs = step * 0.1
            i = drain_current(vgs, 0.3, 0.5, PARAMS)
            assert i >= last - 1e-18
            last = i

    def test_capped_at_isat_max(self):
        strong = FeFETParams(k_factor=1.0)
        i = drain_current(3.0, 3.0, 0.0, strong)
        assert i == pytest.approx(strong.i_sat_max)

    def test_continuity_at_threshold(self):
        """No current discontinuity crossing Vgs = Vth."""
        vth = 0.5
        below = drain_current(vth - 1e-6, 0.3, vth, PARAMS)
        above = drain_current(vth + 1e-6, 0.3, vth, PARAMS)
        assert above / below < 1e3  # same order across the boundary


#: (vgs, vds, vth) operating points across the subthreshold, linear
#: and saturation regions.
OPERATING_POINTS = [
    (0.0, 0.5, 1.4),
    (0.45, 0.3, 0.5),
    (-1.0, 0.1, 0.2),
    (1.4, 0.05, 0.2),
    (0.8, 1.0, 0.2),
    (3.0, 3.0, 0.0),
]


@pytest.mark.parametrize("vgs,vds,vth", OPERATING_POINTS)
def test_bounded_by_floor_and_cap(vgs, vds, vth):
    assert (
        PARAMS.i_off_floor
        <= drain_current(vgs, vds, vth, PARAMS)
        <= PARAMS.i_sat_max
    )


@pytest.mark.parametrize("shift", [-0.3, 0.2, 0.6])
@pytest.mark.parametrize("vgs,vds,vth", OPERATING_POINTS)
def test_current_depends_on_overdrive_only(vgs, vds, vth, shift):
    """Programming a level only moves Vth: the same overdrive conducts
    the same current at every threshold."""
    assert drain_current(vgs + shift, vds, vth + shift, PARAMS) == (
        pytest.approx(drain_current(vgs, vds, vth, PARAMS), rel=1e-9)
    )


@pytest.mark.parametrize("vth", [0.2, 0.8, 1.4])
def test_subthreshold_slope(vth):
    """Below threshold the current falls by e per n * kT/q of gate
    undershoot."""
    deep = drain_current(vth - 0.2, 0.3, vth, PARAMS)
    shallow = drain_current(vth - 0.1, 0.3, vth, PARAMS)
    slope = PARAMS.subthreshold_ideality * THERMAL_VOLTAGE
    assert shallow / deep == pytest.approx(math.exp(0.1 / slope))


@pytest.mark.parametrize("vov", [0.1, 0.3, 0.6])
def test_linear_meets_saturation_at_pinch_off(vov):
    """At vds = vgs - vth the triode and saturation branches differ only
    by channel-length modulation."""
    vth = 0.2
    triode = drain_current(vth + vov, vov * (1 - 1e-9), vth, PARAMS)
    saturated = drain_current(vth + vov, vov * (1 + 1e-9), vth, PARAMS)
    assert saturated / triode == pytest.approx(
        1 + PARAMS.channel_lambda * vov, rel=1e-6
    )


@pytest.mark.parametrize("vgs", [0.8, 1.4, 2.0])
def test_monotone_in_vds(vgs):
    currents = [
        drain_current(vgs, 0.05 * step, 0.2, PARAMS) for step in range(40)
    ]
    assert currents == sorted(currents)


@pytest.mark.parametrize("n_levels", [2, 3, 4, 5])
def test_search_ladder_switches_stored_levels(n_levels):
    """Paper Table II at the transistor: search level j turns stored
    level i ON (i < j) by orders of magnitude over every OFF pair."""
    params = FeFETParams(n_vth_levels=n_levels)
    on, off = [], []
    for i, vth in enumerate(params.vth_levels):
        for j, vs in enumerate(params.search_levels):
            (on if i < j else off).append(drain_current(vs, 0.1, vth, params))
    assert min(on) > 100 * max(off)
