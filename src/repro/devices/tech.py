"""Technology constants for the FeReX 45 nm design point.

The paper evaluates FeReX in Cadence Virtuoso with the Preisach FeFET compact
model [Ni et al., VLSI 2018], 45 nm PTM MOSFETs, DESTINY-extracted wire
parasitics, and a two-stage op-amp scaled to 45 nm.  This module records the
equivalent behavioural-model constants in one place so every higher-level
model (device, circuit, array, energy, timing) draws from a single source of
truth.

All values are plain SI units (volts, amps, seconds, farads, ohms, meters)
unless the name says otherwise.  The defaults are chosen to match the
operating points quoted in the paper:

* 1FeFET1R with an MOhm-class resistor so the ON current is clamped to
  ``Vds / R`` and is insensitive to ``Vth`` variation (paper Sec. II-A).
* Three programmable threshold levels (``Vt0 < Vt1 < Vt2``) and search gate
  levels (``Vs0 < Vs1 < Vs2``) interleaved so that a FeFET conducts exactly
  when the stored level index is smaller than the search level index
  (paper Table II: "The FeFET is ON only if Vti < Vsj, where i < j").
* Device-to-device threshold variation sigma = 54 mV [Soliman, IEDM 2020]
  and 8 % resistor spread [Saito, VLSI 2021] (paper Sec. IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: Boltzmann constant times room temperature over electron charge (thermal
#: voltage at 300 K), used by the subthreshold model.
THERMAL_VOLTAGE = 0.0259

#: Feature size of the technology node modelled throughout (meters).
FEATURE_SIZE_45NM = 45e-9


@dataclass(frozen=True)
class FeFETParams:
    """Electrical parameters of the multi-level HfO2 FeFET.

    The threshold-level ladder is derived from the memory window: a device
    with ``n_vth_levels`` states spreads them uniformly across
    ``[vth_low, vth_low + memory_window]``.
    """

    #: Lowest programmable threshold voltage (fully set polarization), volts.
    vth_low: float = 0.2
    #: Memory window: distance between the lowest and highest Vth, volts.
    memory_window: float = 1.2
    #: Number of programmable threshold levels (MLC depth).
    n_vth_levels: int = 3
    #: Transconductance factor k = mu * Cox * W / L of the underlying
    #: transistor (A / V^2).  Large enough that the series resistor, not the
    #: transistor, limits the ON current.
    k_factor: float = 2.0e-4
    #: Channel-length-modulation coefficient (1/V).
    channel_lambda: float = 0.05
    #: Subthreshold swing expressed as the ideality factor n in
    #: ``I = I0 * exp((Vgs - Vth) / (n * kT/q))``.
    subthreshold_ideality: float = 1.5
    #: Leakage prefactor I0 for the subthreshold branch, amps.
    i0_subthreshold: float = 1.0e-7
    #: Hard floor on the OFF current, amps.
    i_off_floor: float = 1.0e-12
    #: Intrinsic saturation current cap of the transistor itself, amps.
    i_sat_max: float = 50.0e-6

    #: Coercive voltage of the FE layer within the gate stack, volts.
    coercive_voltage: float = 1.2

    def vth_level(self, level: int) -> float:
        """Nominal threshold voltage of MLC state ``level``.

        Level 0 is the *lowest* threshold (most strongly set polarization),
        matching the paper's ``Vt0 < Vt1 < Vt2`` convention.
        """
        if not 0 <= level < self.n_vth_levels:
            raise ValueError(
                f"Vth level {level} outside [0, {self.n_vth_levels - 1}]"
            )
        if self.n_vth_levels == 1:
            return self.vth_low
        step = self.memory_window / (self.n_vth_levels - 1)
        return self.vth_low + step * level

    def search_voltage(self, level: int) -> float:
        """Nominal search gate voltage ``Vs<level>``.

        Search voltages interleave the threshold ladder so that
        ``Vs_j > Vt_i  <=>  i < j``:  ``Vs_j`` sits half a step below
        ``Vt_j``.  ``Vs0`` lies below ``Vt0`` (activates nothing) and
        ``Vs_j`` for ``j >= 1`` lies between ``Vt_{j-1}`` and ``Vt_j``,
        so search level ``j`` turns on exactly the stores ``0 .. j-1``.
        """
        if not 0 <= level < self.n_vth_levels:
            raise ValueError(
                f"search level {level} outside [0, {self.n_vth_levels - 1}]"
            )
        if self.n_vth_levels == 1:
            return self.vth_low + 0.1
        step = self.memory_window / (self.n_vth_levels - 1)
        return self.vth_low + step * level - 0.5 * step

    @property
    def vth_levels(self) -> Tuple[float, ...]:
        """All nominal threshold levels, ascending."""
        return tuple(self.vth_level(i) for i in range(self.n_vth_levels))

    @property
    def search_levels(self) -> Tuple[float, ...]:
        """All nominal search gate levels, ascending."""
        return tuple(self.search_voltage(i) for i in range(self.n_vth_levels))


@dataclass(frozen=True)
class CellParams:
    """1FeFET1R cell electrical and geometric parameters."""

    #: Series resistor value (ohms).  MOhm class per [Saito, VLSI 2021] so
    #: the clamp current dominates the transistor saturation current.
    resistance: float = 1.0e6
    #: Minimum drain-line voltage step: all Vds values are integer multiples
    #: of this unit (paper Sec. II-A), volts.
    vds_unit: float = 0.1
    #: Maximum integer Vds multiple the drain-voltage selector supports.
    max_vds_multiple: int = 4
    #: Cell footprint in units of F^2 (BEOL resistor adds no area,
    #: paper Sec. II-A referencing [Saito]).
    area_f2: float = 30.0
    #: Cell height/width in feature sizes for wire-length computation.
    cell_pitch_f: float = 6.0

    @property
    def unit_current(self) -> float:
        """ON current produced by one Vds unit: ``I_unit = vds_unit / R``."""
        return self.vds_unit / self.resistance


@dataclass(frozen=True)
class VariationParams:
    """Process-variation magnitudes used by the Monte Carlo studies.

    Values come straight from the paper's Sec. IV-A: 54 mV device-to-device
    threshold sigma [Soliman, IEDM 2020] and 8 % resistor spread extracted
    from fabricated 1FeFET1R data [Saito, VLSI 2021].
    """

    #: Device-to-device threshold-voltage standard deviation, volts.
    sigma_vth: float = 0.054
    #: Relative (fractional) standard deviation of the series resistor.
    sigma_r_rel: float = 0.08
    #: Cycle-to-cycle threshold jitter on each programming event, volts.
    sigma_vth_c2c: float = 0.005
    #: Comparator input-referred offset of one LTA branch, amps.
    sigma_lta_offset: float = 2.0e-9
    #: Relative per-row sensing gain error.  Models the residual ScL
    #: clamp error: the op-amp holds the source line imperfectly, so the
    #: effective Vds of every cell in a row — and hence the summed row
    #: current — carries a multiplicative error.  Calibrated so the
    #: worst-case Fig. 7 probe (Hamming 5 vs 6) lands at the paper's
    #: ~90 % search accuracy.
    sigma_row_gain: float = 0.04


@dataclass(frozen=True)
class WireParams:
    """DESTINY-style interconnect parasitics for the 45 nm node."""

    #: Wire capacitance per meter of routed metal (F/m); ~0.2 fF/um.
    cap_per_meter: float = 0.2e-9
    #: Wire resistance per meter (ohm/m); local metal, ~3 ohm/um.
    res_per_meter: float = 3.0e6
    #: Junction/gate loading added per cell on a line (farads).
    cap_per_cell: float = 0.05e-15


@dataclass(frozen=True)
class OpAmpParams:
    """Two-stage op-amp behavioural parameters (scaled from [Kassiri,
    ISCAS 2013] to 45 nm, as the paper does)."""

    #: Slew rate, volts per second (10 V/us class after scaling).
    slew_rate: float = 10.0e6
    #: Unity-gain bandwidth, hertz.
    unity_gain_bandwidth: float = 500.0e6
    #: Static supply current, amps.
    quiescent_current: float = 20.0e-6
    #: Supply voltage, volts.
    supply_voltage: float = 1.0
    #: Settling accuracy target (fraction of final value).
    settling_accuracy: float = 0.01

    @property
    def static_power(self) -> float:
        """Quiescent power draw of one op-amp, watts."""
        return self.quiescent_current * self.supply_voltage


@dataclass(frozen=True)
class LTAParams:
    """Loser-take-all comparator parameters (current-domain WTA dual,
    cf. [Liu, ICCAD 2022])."""

    #: Capacitance of one competition node (farads).
    node_capacitance: float = 5.0e-15
    #: Voltage swing a losing branch must develop to be resolved, volts.
    resolution_swing: float = 0.2
    #: Shared competition-rail bias current, amps.  This dominates the
    #: LTA power and is independent of fan-in — the paper's observation
    #: that "the power consumption of LTA grows insignificantly as the
    #: number of rows increases" (Sec. IV-A).
    bias_current_shared: float = 40.0e-6
    #: Additional static bias per competing row branch, amps (small).
    bias_current_per_row: float = 0.02e-6
    #: Fixed decision-stage (latch) energy independent of fan-in, joules.
    fixed_energy: float = 5.0e-15
    #: Supply voltage, volts.
    supply_voltage: float = 1.0


@dataclass(frozen=True)
class DriverParams:
    """Peripheral driver/decoder energy-delay coefficients (NeuroSim-style
    macro model [Chen, TCAD 2018])."""

    #: Energy per drain-line DAC transition per line, joules.
    dac_energy_per_line: float = 2.0e-15
    #: Energy per search-line level-shifter transition, joules.
    sl_driver_energy: float = 1.5e-15
    #: Row decoder energy per decoded address bit, joules.
    decoder_energy_per_bit: float = 0.8e-15
    #: Write level-shifter energy per pulse (high-voltage path), joules.
    write_driver_energy: float = 30.0e-15
    #: Write/erase pulse width, seconds.
    write_pulse_width: float = 1.0e-6
    #: Write voltage amplitude, volts.
    write_voltage: float = 4.0
    #: Delay of the input decode + drive stage, seconds.
    drive_delay: float = 0.2e-9


@dataclass(frozen=True)
class TechConfig:
    """Bundle of every technology-level parameter group.

    A single ``TechConfig`` instance fully determines the behaviour of the
    device, circuit, energy and timing models; experiments that sweep
    technology assumptions construct modified copies via
    ``dataclasses.replace``.
    """

    fefet: FeFETParams = field(default_factory=FeFETParams)
    cell: CellParams = field(default_factory=CellParams)
    variation: VariationParams = field(default_factory=VariationParams)
    wire: WireParams = field(default_factory=WireParams)
    opamp: OpAmpParams = field(default_factory=OpAmpParams)
    lta: LTAParams = field(default_factory=LTAParams)
    driver: DriverParams = field(default_factory=DriverParams)
    #: Feature size, meters.
    feature_size: float = FEATURE_SIZE_45NM


#: Default technology configuration used across the library and the benches.
DEFAULT_TECH = TechConfig()
