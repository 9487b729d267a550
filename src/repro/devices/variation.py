"""Process-variation sampling for Monte Carlo studies.

The paper's robustness analysis (Fig. 7) injects two device-to-device
variation sources, both taken from fabricated-hardware reports:

* threshold-voltage spread: Gaussian with sigma = 54 mV
  [Soliman, IEDM 2020];
* 1FeFET1R resistor spread: 8 % relative sigma [Saito, VLSI 2021].

plus a small cycle-to-cycle programming jitter and an LTA comparator offset.
All sampling flows through a single seeded :class:`numpy.random.Generator`
so that every Monte Carlo experiment is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .tech import VariationParams


@dataclass
class ArrayVariation:
    """Sampled static variation for one physical array instance.

    Attributes
    ----------
    vth_offset:
        (rows, cols) additive threshold offsets, volts.
    r_factor:
        (rows, cols) multiplicative resistor factors (mean 1.0).
    lta_offset:
        (rows,) additive current offsets at each LTA input, amps.
    row_gain:
        (rows,) multiplicative sensing gain per row (mean 1.0), the
        residual ScL clamp error.
    """

    vth_offset: np.ndarray
    r_factor: np.ndarray
    lta_offset: np.ndarray
    row_gain: np.ndarray

    @property
    def shape(self) -> Tuple[int, int]:
        return self.vth_offset.shape


class VariationSampler:
    """Seeded sampler of all FeReX variation sources.

    Parameters
    ----------
    params:
        Variation magnitudes; defaults to the paper's numbers.
    seed:
        Seed for the underlying PCG64 generator.  Identical seeds give
        identical arrays — the Monte Carlo harness relies on this.
    """

    def __init__(
        self,
        params: Optional[VariationParams] = None,
        seed: Optional[int] = None,
    ):
        self.params = params or VariationParams()
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The underlying generator (shared with callers that need extra
        randomness tied to the same seed)."""
        return self._rng

    def sample_vth_offsets(self, rows: int, cols: int) -> np.ndarray:
        """Device-to-device threshold offsets, volts, shape (rows, cols)."""
        return self._rng.normal(0.0, self.params.sigma_vth, size=(rows, cols))

    def sample_resistor_factors(self, rows: int, cols: int) -> np.ndarray:
        """Multiplicative resistor spread, mean 1, shape (rows, cols).

        Resistances are physically positive; the Gaussian is truncated at
        five sigma and floored at 10 % of nominal, which never triggers at
        the paper's 8 % sigma but keeps extreme sweeps well-posed.
        """
        sigma = self.params.sigma_r_rel
        factors = self._rng.normal(1.0, sigma, size=(rows, cols))
        np.clip(factors, max(0.1, 1.0 - 5.0 * sigma), 1.0 + 5.0 * sigma, out=factors)
        return factors

    def sample_lta_offsets(self, rows: int) -> np.ndarray:
        """LTA comparator input-referred current offsets, amps, shape (rows,)."""
        return self._rng.normal(0.0, self.params.sigma_lta_offset, size=rows)

    def sample_row_gains(self, rows: int) -> np.ndarray:
        """Per-row sensing gain factors (mean 1.0), shape (rows,)."""
        return self._rng.normal(1.0, self.params.sigma_row_gain, size=rows)

    def sample_c2c_jitter(self, rows: int, cols: int) -> np.ndarray:
        """Cycle-to-cycle programming jitter, volts, shape (rows, cols)."""
        return self._rng.normal(
            0.0, self.params.sigma_vth_c2c, size=(rows, cols)
        )

    def sample_array(self, rows: int, cols: int) -> ArrayVariation:
        """Sample one complete static-variation instance for an array."""
        return ArrayVariation(
            vth_offset=self.sample_vth_offsets(rows, cols),
            r_factor=self.sample_resistor_factors(rows, cols),
            lta_offset=self.sample_lta_offsets(rows),
            row_gain=self.sample_row_gains(rows),
        )


def nominal_variation(rows: int, cols: int) -> ArrayVariation:
    """A zero-variation instance (ideal devices) of the given shape.

    The fields are constants, so they are zero-stride read-only
    broadcasts rather than materialised arrays: an ideal array costs no
    per-cell memory, and an in-place write — which would silently
    de-idealise a cell — raises instead.
    """
    return ArrayVariation(
        vth_offset=np.broadcast_to(0.0, (rows, cols)),
        r_factor=np.broadcast_to(1.0, (rows, cols)),
        lta_offset=np.broadcast_to(0.0, rows),
        row_gain=np.broadcast_to(1.0, rows),
    )
