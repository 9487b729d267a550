"""Ideal-device routed and tiered searches select on integer keys only.

A cluster's kernel scores reach about ``2**51`` at 32 Manhattan cells,
so a single ``score << b | column`` key would overflow past about 2048
columns.  :func:`repro.circuits.lta.integer_top_k` keys blocks of at
most :data:`repro.circuits.lta.SELECT_BLOCK` columns instead and merges
their nominees, so no search over clusters of a few thousand rows ever
reaches the float selection :func:`repro.circuits.lta.stable_top_k`.
"""

import numpy as np
import pytest

import repro.arch.crossbar as crossbar
import repro.circuits.lta as lta
import repro.index.backends as backends
from repro.index import FerexIndex

DIMS = 32


@pytest.mark.parametrize(
    "backend, options",
    [
        ("routed", {"n_clusters": 2, "top_p": 2}),
        ("routed", {"n_clusters": 1, "top_p": 1}),
        ("tiered", {}),
    ],
)
def test_no_float_selection(monkeypatch, backend, options):
    rng = np.random.default_rng(12)
    index = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        backend=backend,
        backend_options=options,
    )
    index.add(rng.integers(0, 4, size=(6000, DIMS)))
    index.remove(np.arange(0, 6000, 7))
    queries = rng.integers(0, 4, size=(16, DIMS))
    expected = index.search(queries, k=10)

    calls = []
    select = lta.stable_top_k

    def counted(values, k):
        calls.append(values.shape)
        return select(values, k)

    for module in (lta, crossbar, backends):
        monkeypatch.setattr(module, "stable_top_k", counted)
    found = index.search(queries, k=10)
    assert calls == []
    assert np.array_equal(found.ids, expected.ids)
    assert np.array_equal(found.distances, expected.distances)
    assert min(c.written for c in index.backend._clusters) > 2048
