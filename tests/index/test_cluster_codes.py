"""A routed cluster is its codes: no cluster banks on the kernel path.

A routed (or tiered) cluster keeps the global positions of its rows,
their alive mask and the kernel compiled from the backend's own code
mirror.  With an exact kernel no :class:`FerexBackend` is built and no
bank opens; one :class:`FeReX` per backend supplies the value LUT.
Only where no exact kernel exists does a cluster program transient
banks from its codes, and it keeps them until its next write.
"""

import numpy as np
import pytest

from repro.core.engine import FeReX
from repro.core.kernel import KernelOverflowError
from repro.index import FerexIndex
from repro.index.backends import FerexBackend
from repro.index.routing import RoutedBackend

DIMS = 8
OPTIONS = {
    "routed": {
        "n_clusters": 4,
        "top_p": 2,
        "routing_seed": 3,
        "compact_watermark": 0.3,
    },
    "tiered": {"compact_watermark": 0.3},
}
#: ``index.n_banks`` after each step of :func:`_run`, as the cluster
#: banks reported it when every cluster wrote its own.
PINNED_BANKS = {
    "routed": [6, 6, 8, 6, 6, 5, 6, 5, 5],
    "tiered": [5, 5, 7, 4, 4, 4, 5, 6, 6],
}


def _count(monkeypatch, owner, name):
    """Record the receiver of every ``owner.name`` call (still calling
    through)."""
    calls = []
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _index(backend):
    return FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        bank_rows=8,
        backend=backend,
        backend_options=OPTIONS[backend],
    )


def _run(index):
    """Add, search, remove past the watermark, compact and re-route;
    returns ``index.n_banks`` after each step."""
    rng = np.random.default_rng(47)
    queries = rng.integers(0, 4, size=(6, DIMS))
    steps = (
        lambda: index.add(rng.integers(0, 4, size=(40, DIMS))),
        lambda: index.search(queries, 5),
        lambda: index.add(rng.integers(0, 4, size=(9, DIMS))),
        lambda: index.remove(list(range(0, 40, 2))),
        lambda: index.search(queries, 5),
        index.compact,
        lambda: index.add(rng.integers(0, 4, size=(5, DIMS))),
        lambda: index.reconfigure_routing(n_clusters=3, top_p=2),
        lambda: index.search(queries, 5),
    )
    banks = []
    for step in steps:
        step()
        banks.append(index.n_banks)
    return banks


@pytest.mark.parametrize("backend", ["routed", "tiered"])
def test_the_kernel_path_builds_no_cluster_banks(monkeypatch, backend):
    built = _count(monkeypatch, FerexBackend, "__init__")
    opened = _count(monkeypatch, FerexBackend, "_open_bank")
    engines = _count(monkeypatch, FeReX, "__init__")
    installs = _count(monkeypatch, RoutedBackend, "_install_centroids")
    index = _index(backend)
    _run(index)
    assert index.backend.n_auto_compactions > 0
    assert built == []
    assert opened == []
    assert len(installs) >= 3
    assert len(engines) == 1
    assert all(cluster._sub is None for cluster in index.backend._clusters)


@pytest.mark.parametrize("backend", ["routed", "tiered"])
def test_bank_count_is_the_clusters_written_rows(backend):
    assert _run(_index(backend)) == PINNED_BANKS[backend]


@pytest.mark.parametrize("inner", ["flat", "tiered"])
def test_transient_banks_live_until_their_clusters_next_write(
    monkeypatch, inner
):
    def overflow(engine):
        raise KernelOverflowError("beyond the exact bound")

    monkeypatch.setattr(FeReX, "value_lut", overflow)
    built = _count(monkeypatch, RoutedBackend, "_banks")
    rng = np.random.default_rng(48)
    index = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        bank_rows=8,
        backend="routed",
        backend_options={
            "n_clusters": 4,
            "top_p": 4,
            "routing_seed": 3,
            "compact_watermark": 1.0,
            "inner": inner,
        },
    )
    index.add(rng.integers(0, 4, size=(40, DIMS)))
    queries = rng.integers(0, 4, size=(6, DIMS))
    clusters = index.backend._clusters
    assert built == []

    first = index.search(queries, 5)
    banks = [cluster._sub for cluster in clusters]
    assert all(sub is not None for sub in banks)
    assert len(built) == len(clusters)
    again = index.search(queries, 5)
    assert all(c._sub is sub for c, sub in zip(clusters, banks))
    assert len(built) == len(clusters)
    assert np.array_equal(first.ids, again.ids)
    assert np.array_equal(first.distances, again.distances)

    def written():
        return [(cluster.written, cluster.n_live) for cluster in clusters]

    for write in (
        lambda: index.add(rng.integers(0, 4, size=(2, DIMS))),
        lambda: index.remove([7]),
    ):
        before, n_built = written(), len(built)
        write()
        moved = [a != b for a, b in zip(before, written())]
        assert 1 <= sum(moved) < len(clusters)
        index.search(queries, 5)
        for cluster, sub, touched in zip(clusters, banks, moved):
            assert (cluster._sub is sub) != touched
        assert len(built) == n_built + sum(moved)
        banks = [cluster._sub for cluster in clusters]
