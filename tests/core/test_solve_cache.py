"""The cell solve runs once per configuration per process.

:class:`repro.core.FeReX` keeps each solved :class:`CellEncoding` keyed
by exactly what the solve reads: the resolved encoder mode, the metric
name and bits, the DM values, ``max_k`` and the resolved current range.
A warm engine must equal a cold solve in every table it derives; any
change to one of those inputs must solve again; a failed solve must
raise on every call and never be stored.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.distance import DistanceMetric, get_metric
from repro.core.engine import ConfigurationError, FeReX
from repro.devices.tech import DEFAULT_TECH

DIMS = 4

#: CSP requests whose search runs for minutes (3-bit Hamming and
#: Manhattan, 2-bit Euclidean); every other (metric, bits, encoder)
#: in the grid builds or raises within milliseconds.
SLOW_CSP = {("hamming", 3), ("manhattan", 3), ("euclidean", 2)}
GRID = [
    (metric, bits, encoder)
    for metric in ("hamming", "manhattan", "euclidean")
    for bits in (1, 2, 3)
    for encoder in ("auto", "csp", "constructive")
    if not (encoder == "csp" and (metric, bits) in SLOW_CSP)
]


@pytest.fixture
def solves(monkeypatch):
    """Start from an empty cache and count the solves that run."""
    monkeypatch.setattr(engine_module, "_SOLVED_CELLS", {})
    calls = []
    solve = FeReX._solve

    def counting(self, *args):
        calls.append(args)
        return solve(self, *args)

    monkeypatch.setattr(FeReX, "_solve", counting)
    return calls


def _tables(engine):
    lut, quantum = engine.value_lut()
    return (
        engine.encoding,
        engine.k,
        engine._store_lut,
        engine._search_volt_lut,
        engine._search_mult_lut,
        lut,
        quantum,
    )


def _assert_same_tables(warm, cold):
    for got, want in zip(_tables(warm), _tables(cold)):
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


def test_one_configuration_shares_one_encoding(solves):
    first = FeReX("manhattan", 2, DIMS)
    second = FeReX("manhattan", 2, 2 * DIMS, seed=3)
    assert second.encoding is first.encoding
    assert len(solves) == 1
    # The per-engine tables stay per engine.
    assert second._store_lut is not first._store_lut


def test_auto_shares_the_solve_of_its_resolved_mode(solves):
    auto = FeReX("hamming", 2, DIMS)
    csp = FeReX("hamming", 2, DIMS, encoder="csp")
    assert csp.encoding is auto.encoding
    assert len(solves) == 1


@pytest.mark.parametrize("metric,bits,encoder", GRID)
def test_warm_engine_equals_a_cold_solve(monkeypatch, metric, bits, encoder):
    try:
        FeReX(metric, bits, DIMS, encoder=encoder)
    except ConfigurationError:
        monkeypatch.setattr(engine_module, "_SOLVED_CELLS", {})
        with pytest.raises(ConfigurationError):
            FeReX(metric, bits, DIMS, encoder=encoder)
        return
    warm = FeReX(metric, bits, DIMS, encoder=encoder)
    monkeypatch.setattr(engine_module, "_SOLVED_CELLS", {})
    cold = FeReX(metric, bits, DIMS, encoder=encoder)
    assert cold.encoding is not warm.encoding
    _assert_same_tables(warm, cold)


def test_custom_metric_under_a_registered_name_solves_again(solves):
    registered = FeReX("manhattan", 2, DIMS, encoder="csp")
    hamming = get_metric("hamming").element_fn
    impostor = DistanceMetric("manhattan", hamming)
    custom = FeReX(impostor, 2, DIMS, encoder="csp")
    assert len(solves) == 2
    assert custom.encoding != registered.encoding
    assert np.array_equal(custom.encoding.reconstruct_dm(), custom.dm.values)


def test_max_k_and_current_range_each_solve_again(solves):
    base = FeReX("hamming", 2, DIMS, encoder="csp")
    FeReX("hamming", 2, DIMS, encoder="csp", max_k=5)
    ranged = FeReX("hamming", 2, DIMS, encoder="csp", current_range=(1, 2))
    assert len(solves) == 3
    # Spelling the resolved default range out is the same request.
    default = range(1, DEFAULT_TECH.cell.max_vds_multiple + 1)
    again = FeReX("hamming", 2, DIMS, encoder="csp", current_range=default)
    assert len(solves) == 3
    assert again.encoding is base.encoding
    assert ranged.encoding.current_range == (1, 2)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(metric="hamming", bits=2, encoder="csp", max_k=2),
        dict(metric="euclidean", bits=3, encoder="csp"),
    ],
)
def test_infeasible_request_raises_every_time(solves, kwargs):
    for attempt in range(1, 4):
        with pytest.raises(ConfigurationError):
            FeReX(dims=DIMS, **kwargs)
        assert len(solves) == attempt
    assert engine_module._SOLVED_CELLS == {}


def test_concurrent_builders_get_equal_encodings(solves):
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    engines = [None] * n_threads
    errors = []

    def build(slot):
        try:
            barrier.wait(timeout=10)
            engines[slot] = FeReX("euclidean", 1, DIMS, encoder="csp")
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=build, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    first = engines[0].encoding
    assert all(engine.encoding == first for engine in engines)
    # Whoever solved, one encoding was stored and later engines share it.
    (stored,) = engine_module._SOLVED_CELLS.values()
    assert FeReX("euclidean", 1, DIMS, encoder="csp").encoding is stored
    assert 1 <= len(solves) <= n_threads
