"""repro — a reproduction of FeReX (DATE 2024).

FeReX is a reconfigurable multi-bit ferroelectric compute-in-memory
associative memory for nearest-neighbor search.  This package implements
the full stack from the paper:

* :mod:`repro.devices` — FeFET I-V and 1FeFET1R device physics;
* :mod:`repro.circuits` — clamp op-amp, loser-take-all, row interface;
* :mod:`repro.arch` — crossbar array, parasitics, energy/timing macro
  models;
* :mod:`repro.core` — the CSP encoding pipeline (Algorithm 1 + Fig. 5)
  and the :class:`repro.core.FeReX` engine API;
* :mod:`repro.index` — the :class:`FerexIndex` vector-index facade:
  sharded multi-bank search with pluggable backends, incremental
  writes and persistence;
* :mod:`repro.serve` — the async serving layer: request coalescing,
  LRU query caching and replica routing over :class:`FerexServer`;
* :mod:`repro.apps` — KNN and hyperdimensional-computing applications
  plus dataset generators;
* :mod:`repro.eval` — Monte Carlo harness, GPU roofline baseline and
  report formatting for the paper's tables and figures.

The application layer (``KNNClassifier``, ``HDCClassifier``,
``FerexIndex`` & friends) is surfaced here lazily (PEP 562), so
``import repro`` stays as cheap as the core alone.
"""

from .core import (
    BankConfig,
    DistanceMatrix,
    FeReX,
    NotProgrammedError,
    get_metric,
)

__version__ = "1.1.0"

#: Lazily exported application/index symbols: name -> (module, attr).
_LAZY_EXPORTS = {
    "KNNClassifier": ("repro.apps.knn", "KNNClassifier"),
    "KNNPrediction": ("repro.apps.knn", "KNNPrediction"),
    "HDCClassifier": ("repro.apps.hdc.model", "HDCClassifier"),
    "FerexIndex": ("repro.index", "FerexIndex"),
    "SearchOutcome": ("repro.index", "SearchOutcome"),
    "SearchBackend": ("repro.index", "SearchBackend"),
    "FerexBackend": ("repro.index", "FerexBackend"),
    "ExactBackend": ("repro.index", "ExactBackend"),
    "GPUBackend": ("repro.index", "GPUBackend"),
    "TieredBackend": ("repro.index", "TieredBackend"),
    "FerexServer": ("repro.serve", "FerexServer"),
    "ProcReplicaPool": ("repro.serve", "ProcReplicaPool"),
    "QueryCache": ("repro.serve", "QueryCache"),
    "ReplicaRouter": ("repro.serve", "ReplicaRouter"),
    "RequestCoalescer": ("repro.serve", "RequestCoalescer"),
    "ServerStats": ("repro.serve", "ServerStats"),
}

__all__ = [
    "BankConfig",
    "DistanceMatrix",
    "FeReX",
    "NotProgrammedError",
    "get_metric",
    "__version__",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    """PEP 562 lazy loader for the application layer."""
    try:
        module_name, attr = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
