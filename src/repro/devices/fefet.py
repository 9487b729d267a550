"""Transistor-level I-V model of the multi-level FeFET.

A FeFET is a MOSFET whose threshold voltage is set by the remanent
polarization of the ferroelectric gate layer; the array stores that
threshold directly as one of the technology's levels.  For FeReX only
three operating facts matter (paper Fig. 1):

1. below threshold the device is effectively OFF (exponential subthreshold
   decay, nanoamp and below);
2. above threshold the device conducts with the usual square-law linear /
   saturation characteristic;
3. with a large series resistor the operating point sits deep in the linear
   region, so the cell current is ``Vds / R`` regardless of ``Vth`` detail.

This module provides fact 1 and 2; :mod:`repro.devices.cell` composes them
with the resistor for fact 3.
"""

from __future__ import annotations

import math
from typing import Optional

from .tech import THERMAL_VOLTAGE, FeFETParams


def drain_current(
    vgs: float,
    vds: float,
    vth: float,
    params: Optional[FeFETParams] = None,
) -> float:
    """Drain current of a bare FeFET (no series resistor), amps.

    Piecewise square-law model:

    * ``vgs <= vth``: subthreshold exponential with floor ``i_off_floor``;
    * ``vds < vgs - vth``: linear (triode) region;
    * otherwise: saturation with channel-length modulation, capped at
      ``i_sat_max``.

    Negative ``vds`` is not supported (the crossbar always biases DL above
    ScL); zero ``vds`` returns zero current.
    """
    params = params or FeFETParams()
    if vds < 0:
        raise ValueError("fefet model is unidirectional: vds must be >= 0")
    if vds == 0.0:
        return 0.0

    vov = vgs - vth  # overdrive
    if vov <= 0:
        # Subthreshold conduction.
        i_sub = params.i0_subthreshold * math.exp(
            vov / (params.subthreshold_ideality * THERMAL_VOLTAGE)
        )
        return max(params.i_off_floor, min(i_sub, params.i_sat_max))

    if vds < vov:
        ids = params.k_factor * (vov * vds - 0.5 * vds * vds)
    else:
        ids = (
            0.5
            * params.k_factor
            * vov
            * vov
            * (1.0 + params.channel_lambda * vds)
        )
    return min(ids, params.i_sat_max)
