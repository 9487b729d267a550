"""Hypothesis round-trip property: *any* interleaving of adds, removes
and (per-bank or whole-index) reconfigures must survive both
persistence paths — `save`/`load` and `export_state`/`from_state` —
bit-identically, with `content_fingerprint` agreeing, and every
reconfigure must move the fingerprints (the cache-invalidation
contract)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.index import FerexIndex
from repro.serve import QueryCache

DIMS = 4
BANK_ROWS = 4
#: Kept small so the per-op engine rebuilds (CSP solves for 2-bit
#: alphabets) stay fast under hypothesis example counts.
MAX_ROWS = 12

metrics = st.sampled_from(["hamming", "manhattan"])
bits_values = st.sampled_from([1, 2])


@st.composite
def op_sequences(draw):
    """A short mutation history over 1-bit base codes (valid at every
    target alphabet, so any reconfigure direction is legal)."""
    n = draw(st.integers(min_value=2, max_value=MAX_ROWS))
    ops = [("add", n)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["remove", "reconfigure"]))
        if kind == "remove":
            ops.append(("remove", draw(st.integers(0, n - 1))))
        else:
            ops.append(("reconfigure", draw(metrics), draw(bits_values)))
    return ops


def apply_ops(index, ops, rng):
    removed = set()
    for op in ops:
        if op[0] == "add":
            index.add(rng.integers(0, 2, size=(op[1], DIMS)))
        elif op[0] == "remove":
            if op[1] not in removed and op[1] < index._next_id:
                removed.add(op[1])
                index.remove([op[1]])
        elif op[0] == "reconfigure":
            index.reconfigure(metric=op[1], bits=op[2])
    return index


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=op_sequences(), data=st.data())
def test_heterogeneous_round_trip(tmp_path_factory, ops, data):
    rng = np.random.default_rng(0)
    index = apply_ops(
        FerexIndex(dims=DIMS, bits=2, bank_rows=BANK_ROWS, seed=3),
        ops,
        rng,
    )
    queries = np.random.default_rng(1).integers(
        0, index.config.n_values, size=(6, DIMS)
    )
    k = min(3, max(1, index.ntotal))
    direct = index.search(queries, k=k) if index.ntotal else None

    # export_state / from_state
    meta, arrays = index.export_state()
    rebuilt = FerexIndex.from_state(meta, **arrays)
    assert rebuilt.bank_configs == index.bank_configs
    assert rebuilt.content_fingerprint() == index.content_fingerprint()

    # save / load
    path = tmp_path_factory.mktemp("idx") / "index.npz"
    index.save(path)
    loaded = FerexIndex.load(path)
    assert loaded.bank_configs == index.bank_configs
    assert loaded.content_fingerprint() == index.content_fingerprint()

    if direct is not None:
        for other in (rebuilt, loaded):
            result = other.search(queries, k=k)
            np.testing.assert_array_equal(result.ids, direct.ids)
            np.testing.assert_array_equal(
                result.distances, direct.distances
            )


def test_reconfigure_moves_fingerprints_and_cache_keys():
    """The satellite contract: a reconfigure changes
    `content_fingerprint`, and its generation bump makes every old
    cache key unreachable."""
    index = FerexIndex(dims=DIMS, bits=2, bank_rows=BANK_ROWS)
    index.add(np.random.default_rng(5).integers(0, 2, size=(8, DIMS)))
    query = np.zeros(DIMS, dtype=int)
    before_content = index.content_fingerprint()
    before_rolling = index.fingerprint()
    before_key = QueryCache.key(query, 1, index.write_generation)

    index.reconfigure(bits=1)

    assert index.content_fingerprint() != before_content
    assert index.fingerprint() != before_rolling
    after_key = QueryCache.key(query, 1, index.write_generation)
    assert after_key != before_key
