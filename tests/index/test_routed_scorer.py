"""Which scorer a routed cluster runs, and what it holds.

A routed backend names its scorer once, with the LUT, at its first
centroid install, and every search reports it as
``last_routing["scorer"]``:

* ``"distance"`` — the configuration certifies its distance table and
  the value LUT needs float64 planes: a cluster kernel compiles the DM's
  stacked float32 planes from its int8 codes and selects in D;
* ``"value: float32 planes"`` — the value LUT is float32 planes alone
  (a 1-bit coarse tier): the value kernel stays;
* ``"value: uncertified"`` — the leakage residual could reorder rows;
* ``"value: no exact kernel"`` — ``value_lut()`` overflows and the
  clusters' transient banks answer.

Whatever the scorer, answers are the flat backend's at full probe.
"""

import numpy as np
import pytest

from repro.core import engine as engine_module
from repro.core.cell_config import CellConfiguration
from repro.core.engine import FeReX
from repro.core.kernel import KernelOverflowError
from repro.index import FerexIndex

DIMS = 32
LEAKY = CellConfiguration.value_table.func


def _routed(metric="manhattan", bits=2, **options):
    return FerexIndex(
        dims=DIMS,
        metric=metric,
        bits=bits,
        backend="routed",
        backend_options={"n_clusters": 4, "top_p": 4, **options},
    )


def _churned(index, rng):
    """Rows added, some removed, then more added; returns the queries."""
    hi = 1 << index.bits
    ids = list(index.add(rng.integers(0, hi, size=(300, DIMS))))
    index.remove(ids[::7])
    index.add(rng.integers(0, hi, size=(20, DIMS)))
    return rng.integers(0, hi, size=(9, DIMS))


def _assert_flat_answers(index, queries, k=6):
    flat = FerexIndex(dims=DIMS, metric=index.metric, bits=index.bits)
    state = index.export_state()
    flat.add(state[1]["vectors"])
    flat.remove(np.flatnonzero(~state[1]["alive"]))
    routed, expected = index.search(queries, k), flat.search(queries, k)
    assert np.array_equal(routed.ids, expected.ids)
    assert np.array_equal(routed.distances, expected.distances)


@pytest.mark.parametrize("metric", ["manhattan", "euclidean", "hamming"])
@pytest.mark.parametrize("bits", [2, 3])
def test_multi_bit_clusters_select_in_distance(metric, bits):
    """Every multi-bit value LUT needs float64 planes, except Hamming
    3-bit's: its seven planes are gcd-scaled float32 ones."""
    index = _routed(metric, bits)
    queries = _churned(index, np.random.default_rng(bits))
    _assert_flat_answers(index, queries)
    narrow = (metric, bits) == ("hamming", 3)
    scorer = "value: float32 planes" if narrow else "distance"
    assert index.last_routing["scorer"] == scorer
    for cluster in index.backend._clusters:
        kernel = cluster.kernel
        assert (kernel.distance is None) == narrow
        assert kernel.codes.dtype == np.int8
        assert kernel.rows == cluster.written


def test_a_two_bit_cluster_holds_392_bytes_of_planes_per_row():
    index = _routed()
    _churned(index, np.random.default_rng(1))
    index.search(np.zeros((1, DIMS), dtype=int), 3)
    for cluster in index.backend._clusters:
        kernel = cluster.kernel
        capacity = len(kernel._base)
        assert kernel.nbytes <= 392 * capacity
        assert kernel._codes.nbytes == DIMS * capacity


def test_a_one_bit_coarse_tier_keeps_the_value_kernel():
    index = FerexIndex(dims=DIMS, metric="manhattan", bits=2, backend="tiered")
    index.add(np.random.default_rng(2).integers(0, 4, size=(50, DIMS)))
    index.search(np.zeros((2, DIMS), dtype=int), 3)
    assert index.last_routing["scorer"] == "value: float32 planes"
    assert index.backend._clusters[0].kernel.distance is None


def test_without_an_exact_kernel_the_scorer_says_so(monkeypatch):
    def overflow(engine):
        raise KernelOverflowError("beyond the exact bound")

    monkeypatch.setattr(FeReX, "value_lut", overflow)
    index = _routed()
    index.add(np.random.default_rng(3).integers(0, 4, size=(40, DIMS)))
    index.search(np.zeros((2, DIMS), dtype=int), 3)
    assert index.last_routing["scorer"] == "value: no exact kernel"


def test_a_leaky_lut_takes_the_value_path(monkeypatch):
    """Every cell that matches its query leaks 1.5 more units per row:
    ``dims x spread >= 1`` breaks the certificate, so the clusters score
    exact values — and still answer what the flat banks answer under the
    same LUT."""

    def leaky(cell):
        lut, quantum = LEAKY(cell)
        steps = 1.5 / cell.dims * cell.tech.cell.unit_current / quantum
        bump = np.zeros_like(lut)
        np.fill_diagonal(bump[:, :-1], int(round(steps)))
        return lut + bump, quantum

    monkeypatch.setattr(engine_module, "_CONFIGURATIONS", {})
    monkeypatch.setattr(CellConfiguration, "value_table", property(leaky))
    index = _routed()
    queries = _churned(index, np.random.default_rng(4))
    _assert_flat_answers(index, queries)
    assert index.last_routing["scorer"] == "value: uncertified"
    assert all(c.kernel.distance is None for c in index.backend._clusters)
