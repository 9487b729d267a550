"""First-class bank configuration: the (metric, bits) pair FeReX
re-voltages an array for.

The paper's headline claim is that one physical FeFET array serves
different distance functions and bit precisions purely by changing the
applied voltage encoding (Table I "HD / L1 / L2"; Sec. IV multi-bit
cells).  :class:`BankConfig` makes that re-voltageable configuration a
value object instead of a pair of loose ``metric=``/``bits=`` keyword
arguments, so it can be

* validated eagerly (an unknown metric name fails at construction, not
  at the first search),
* carried per *bank* (a tiered search's coarse banks run at fewer
  bits than the index they serve),
* compared, hashed, and round-tripped through persistence metadata.

Equality is semantic: two configs are equal iff they name the same
metric and the same bit width, whether the metric was given as a
registry name or a :class:`DistanceMetric` instance.

:func:`quantize_codes` is the one lawful way codes move between
configs of different widths: a ``b``-bit code serves a narrower
``b' < b`` bank by keeping its top ``b'`` bits (a uniform re-quantise,
exactly what re-programming the array at fewer Vth levels does).
:func:`code_dtype` (defined beside the metrics in
:mod:`repro.core.distance`, re-exported here) is the one rule for how
wide a stored code is below the index: every code mirror (engine, bank,
rescore and exact stores) takes its dtype from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .distance import DistanceMetric, available_metrics, get_metric
from .distance import code_dtype as code_dtype


@dataclass(frozen=True, eq=False)
class BankConfig:
    """One bank's re-voltageable configuration: distance metric + bit
    width of the stored alphabet.

    Parameters
    ----------
    metric:
        Registered metric name ("hamming", "manhattan", ...) or a
        :class:`DistanceMetric` instance.  Names are validated against
        the registry at construction — the fail-fast guarantee every
        layer above relies on.
    bits:
        Bit width of each vector element (alphabet ``[0, 2**bits)``).
    """

    metric: Union[str, DistanceMetric] = "hamming"
    bits: int = 2

    def __post_init__(self):
        object.__setattr__(self, "bits", int(self.bits))
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if isinstance(self.metric, str):
            try:
                get_metric(self.metric)
            except KeyError:
                raise ValueError(
                    f"unknown metric {self.metric!r}; known: "
                    f"{sorted(available_metrics())}"
                ) from None
        elif not isinstance(self.metric, DistanceMetric):
            raise ValueError(
                "metric must be a registered name or a DistanceMetric, "
                f"got {type(self.metric).__name__}"
            )

    # ------------------------------------------------------------------
    @property
    def metric_name(self) -> str:
        """The metric's registry name (identity for persistence)."""
        return (
            self.metric if isinstance(self.metric, str) else self.metric.name
        )

    @property
    def resolved(self) -> DistanceMetric:
        """The :class:`DistanceMetric` instance this config names."""
        return (
            get_metric(self.metric)
            if isinstance(self.metric, str)
            else self.metric
        )

    @property
    def n_values(self) -> int:
        """Alphabet size ``2**bits``."""
        return 1 << self.bits

    # ------------------------------------------------------------------
    # Semantic identity: name + bits, however the metric was spelled.
    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, BankConfig):
            return NotImplemented
        return (
            self.metric_name == other.metric_name
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.metric_name, self.bits))

    def __repr__(self) -> str:
        return f"BankConfig(metric={self.metric_name!r}, bits={self.bits})"

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able record (metric by name — the same identity
        ``FerexIndex.save`` has always persisted)."""
        return {"metric": self.metric_name, "bits": self.bits}

    @classmethod
    def from_dict(cls, record: dict) -> "BankConfig":
        return cls(metric=record["metric"], bits=int(record["bits"]))


def quantize_codes(
    codes: np.ndarray, from_bits: int, to_bits: int
) -> np.ndarray:
    """Re-quantise ``from_bits``-wide codes to a ``to_bits`` alphabet.

    Narrowing keeps the top bits (right shift — the uniform coarse
    quantisation a low-precision bank physically stores); widening (or
    equal width) is the identity, codes already fit.
    """
    shift = int(from_bits) - int(to_bits)
    if shift <= 0:
        return codes
    return np.asarray(codes, dtype=int) >> shift
