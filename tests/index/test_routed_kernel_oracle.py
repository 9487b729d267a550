"""Routed search scores each probed cluster as one kernel.

The oracle is what routed search did before: every probed cluster's
:class:`FerexBackend` nominates through its own banks —
:meth:`FerexBackend.search` for ``inner="flat"``,
:meth:`FerexBackend.shortlist` for ``inner="tiered"`` — and the same
merge (or exact rescore) decides.  With ``top_p < n_clusters`` the
cluster kernel must return the same ids and distances, bit for bit,
across metrics x bits x encoders and the whole mutation vocabulary,
and it must never compile a kernel in a cluster bank.

Two indexes take every mutation in lockstep: one answers only routed
searches (so its banks must stay uncompiled), the other's banks answer
the oracle.
"""

import zlib

import numpy as np
import pytest

from repro.core.engine import FeReX
from repro.core.kernel import KernelOverflowError
from repro.index import FerexIndex
from repro.index.backends import PAD_POSITION, merge_top_k, refine

DIMS = 8
METRICS = ["hamming", "manhattan", "euclidean"]


def _index(metric, bits, encoder, inner):
    return FerexIndex(
        dims=DIMS,
        metric=metric,
        bits=bits,
        bank_rows=8,
        encoder=encoder,
        backend="routed",
        backend_options={
            "n_clusters": 4,
            "top_p": 2,
            "routing_seed": 3,
            "compact_watermark": 0.3,
            "inner": inner,
            "refine_factor": 2,
        },
    )


def _oracle(backend, queries, k):
    """Per query: each probed cluster's banks nominate, then the
    routed backend's merge (flat) or exact rescore (tiered)."""
    tiered = backend.inner == "tiered"
    count = max(k * backend.refine_factor, k) if tiered else k
    member, _ = backend._probe_plan(queries, k)
    sub_queries = backend._sub_codes(queries)
    rows = []
    for query, probed in zip(sub_queries, member):
        positions, units = [], []
        for ci in np.flatnonzero(probed):
            cluster = backend._clusters[ci]
            c = min(count, cluster.n_live)
            if c == 0:
                continue
            if tiered:
                local, score = cluster.sub.shortlist(
                    query[None], c, with_units=True
                )
            else:
                local, score = cluster.sub.search(query[None], c)
            positions.append(cluster.globals_[local[0]])
            units.append(score[0])
        rows.append((np.concatenate(positions), np.concatenate(units)))
    width = max(len(positions) for positions, _ in rows)
    positions = np.full((len(queries), width), PAD_POSITION)
    units = np.full((len(queries), width), np.inf)
    for i, (row_positions, row_units) in enumerate(rows):
        positions[i, : len(row_positions)] = row_positions
        units[i, : len(row_units)] = row_units
    if tiered:
        return refine(backend.config, backend._vectors, queries, positions, k)
    return merge_top_k(positions, units, k)


def _assert_matches_oracle(routed, mirror, queries, k):
    found = routed.backend.search(queries, k)
    for cluster in routed.backend._clusters:
        for engine in cluster.sub.engines:
            assert not engine.array._scorer_cache
    expected = _oracle(mirror.backend, queries, k)
    assert np.array_equal(found[0], expected[0])
    assert np.array_equal(found[1], expected[1])


@pytest.mark.parametrize("inner", ["flat", "tiered"])
@pytest.mark.parametrize("encoder", ["auto", "constructive"])
@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("metric", METRICS)
def test_cluster_kernel_matches_per_bank_oracle(
    metric, bits, encoder, inner
):
    rng = np.random.default_rng(
        zlib.crc32(f"oracle/{metric}/{bits}/{encoder}/{inner}".encode())
    )
    hi = 1 << bits
    routed = _index(metric, bits, encoder, inner)
    mirror = _index(metric, bits, encoder, inner)

    def both(verb, *args, **kwargs):
        getattr(routed, verb)(*args, **kwargs)
        getattr(mirror, verb)(*args, **kwargs)

    queries = rng.integers(0, hi, size=(7, DIMS))
    both("add", rng.integers(0, hi, size=(40, DIMS)))
    _assert_matches_oracle(routed, mirror, queries, 5)

    for chunk in (9, 1):
        both("add", rng.integers(0, hi, size=(chunk, DIMS)))
        _assert_matches_oracle(routed, mirror, queries, 5)

    # Heavy removes trip the per-cluster tombstone watermark.
    both("remove", rng.choice(50, size=22, replace=False).tolist())
    assert routed.backend.n_auto_compactions > 0
    _assert_matches_oracle(routed, mirror, queries, 4)

    both("compact")
    _assert_matches_oracle(routed, mirror, queries, 4)

    both("reconfigure", bits=bits + 1)
    queries = rng.integers(0, 2 * hi, size=(7, DIMS))
    _assert_matches_oracle(routed, mirror, queries, 4)

    both("reconfigure_routing", n_clusters=3, top_p=2)
    both("add", rng.integers(0, 2 * hi, size=(6, DIMS)))
    _assert_matches_oracle(routed, mirror, queries, 6)


@pytest.mark.parametrize("inner", ["flat", "tiered"])
def test_without_an_exact_kernel_the_banks_answer(monkeypatch, inner):
    def overflow(engine):
        raise KernelOverflowError("beyond the exact bound")

    monkeypatch.setattr(FeReX, "value_lut", overflow)
    rng = np.random.default_rng(12)
    index = _index("manhattan", 2, "auto", inner)
    index.add(rng.integers(0, 4, size=(40, DIMS)))
    index.remove([1, 2, 30])
    queries = rng.integers(0, 4, size=(6, DIMS))
    found = index.backend.search(queries, 5)
    assert all(cluster.kernel is None for cluster in index.backend._clusters)
    expected = _oracle(index.backend, queries, 5)
    assert np.array_equal(found[0], expected[0])
    assert np.array_equal(found[1], expected[1])
