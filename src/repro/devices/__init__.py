"""Device-physics substrate: FeFET I-V, 1FeFET1R cell, technology
constants and process variation.

These models stand in for the Cadence Virtuoso + Preisach-SPICE stack the
paper simulates with: a FeFET is its square-law I-V at one of the
technology's threshold levels, not a hysteresis model.
"""

from .cell import OneFeFETOneR
from .fefet import drain_current
from .tech import (
    DEFAULT_TECH,
    CellParams,
    DriverParams,
    FeFETParams,
    LTAParams,
    OpAmpParams,
    TechConfig,
    VariationParams,
    WireParams,
)
from .variation import ArrayVariation, VariationSampler, nominal_variation

__all__ = [
    "ArrayVariation",
    "CellParams",
    "DEFAULT_TECH",
    "DriverParams",
    "FeFETParams",
    "LTAParams",
    "OneFeFETOneR",
    "OpAmpParams",
    "TechConfig",
    "VariationParams",
    "VariationSampler",
    "WireParams",
    "drain_current",
    "nominal_variation",
]
