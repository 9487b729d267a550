"""One exact software scorer.

``DistanceMetric.pairwise`` is the exact scorer every software path
uses, and the GPU backend is the exact backend plus a roofline price.
The array-module facade, the kernel's adapter entry point, the
estimate-only fork and the loose ``(metric, bits, dims)`` backend
constructor are gone, and ``pairwise`` scores in bounded blocks.
"""

import importlib
import inspect
import tracemalloc

import numpy as np
import pytest

import repro.core
from repro.core.distance import get_metric
from repro.core.kernel import LUTKernel
from repro.index import BACKENDS


def test_array_module_facade_is_gone():
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.xp")


@pytest.mark.parametrize(
    "name",
    [
        "ArrayModule",
        "available_modules",
        "get_array_module",
        "as_bank_config",
    ],
)
def test_core_exports_no_deleted_name(name):
    assert not hasattr(repro.core, name)
    assert name not in repro.core.__all__


def test_kernel_has_no_adapter_entry_point():
    assert not hasattr(LUTKernel, "scores_with")


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_backend_constructors_take_a_config_and_dims(name):
    params = list(inspect.signature(BACKENDS[name]).parameters)
    assert params[:2] == ["config", "dims"]
    for gone in ("metric", "bits", "estimate_only", "prefer"):
        assert gone not in params


def test_pairwise_peak_memory_is_bounded():
    """32 x 2048 x 256 Hamming: the unblocked (n, N, dims) int64
    broadcast peaked at 257 MiB."""
    rng = np.random.default_rng(0)
    queries = rng.integers(0, 2, size=(32, 256))
    stored = rng.integers(0, 2, size=(2048, 256))
    tracemalloc.start()
    try:
        table = get_metric("hamming").pairwise(queries, stored, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (32, 2048)
    assert peak < 32 * 2**20
