"""The kernel's static eligibility gate: are the devices nominal?

An array built without a variation sample makes the nominal constants
itself, so it knows it is ideal without scanning them.  A supplied
sample is scanned on the first compile: a zero-sigma sample still
compiles the kernel, a varied one falls back to float physics.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import FeReX
from repro.devices.tech import TechConfig, VariationParams

DIMS = 8


def _zero_sigma_tech():
    params = dataclasses.replace(
        VariationParams(),
        sigma_vth=0.0,
        sigma_r_rel=0.0,
        sigma_vth_c2c=0.0,
        sigma_lta_offset=0.0,
        sigma_row_gain=0.0,
    )
    return dataclasses.replace(TechConfig(), variation=params)


def _programmed(**kwargs):
    engine = FeReX("manhattan", 2, DIMS, **kwargs)
    engine.program(np.random.default_rng(4).integers(0, 4, size=(6, DIMS)))
    return engine


def test_nominal_constants_are_ideal_without_a_scan(monkeypatch):
    engine = _programmed()
    assert engine.array._ideal_variation is True

    def refuse(*args, **kwargs):
        raise AssertionError("the nominal constants were scanned")

    monkeypatch.setattr(np, "any", refuse)
    assert engine.array._variation_is_ideal()
    monkeypatch.undo()
    assert engine.array.quantized_kernel() is not None


@pytest.mark.parametrize(
    "tech,ideal",
    [(_zero_sigma_tech(), True), (TechConfig(), False)],
    ids=["zero-sigma", "varied"],
)
def test_a_supplied_sample_is_scanned_on_first_compile(tech, ideal):
    engine = _programmed(seed=5, tech=tech)
    assert engine.array._ideal_variation is None
    kernel = engine.array.quantized_kernel()
    assert engine.array._ideal_variation is ideal
    assert (kernel is not None) is ideal
