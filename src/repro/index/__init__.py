"""Vector-index layer: the production-shaped search API over FeReX.

:class:`FerexIndex` is the facade every application-level consumer
(KNN, HDC inference, Monte Carlo sweeps) searches through; the
:class:`SearchBackend` protocol makes the execution substrate pluggable
(sharded FeReX banks, exact software, GPU roofline baseline, tiered
coarse-to-fine, cluster-routed bank selection).  Configuration is
first-class: every backend — and every ferex bank — carries a
:class:`repro.core.BankConfig`, and :meth:`FerexIndex.reconfigure`
re-voltages the whole index online
(:meth:`FerexIndex.reconfigure_routing` moves the routed backend's probe
width and cluster count the same way).
"""

from ..core.config import BankConfig, quantize_codes
from .backends import (
    BACKENDS,
    ExactBackend,
    FerexBackend,
    GPUBackend,
    SearchBackend,
)
from .index import FerexIndex, SearchOutcome, state_digest
from .routing import RoutedBackend, TieredBackend

__all__ = [
    "BACKENDS",
    "BankConfig",
    "ExactBackend",
    "FerexBackend",
    "FerexIndex",
    "GPUBackend",
    "RoutedBackend",
    "SearchBackend",
    "SearchOutcome",
    "TieredBackend",
    "quantize_codes",
    "state_digest",
]
