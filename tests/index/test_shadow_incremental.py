"""The tiered backend under interleaved mutations.

(The lazily-synced ``search(mode="tiered")`` shadow this file used to
test is gone — tiered search is ``backend="tiered"`` only, mutated
directly through the backend protocol like every other backend.)
"""

import numpy as np

from repro.index import FerexIndex

OPTIONS = {"refine_factor": 4}


def _index():
    return FerexIndex(
        dims=10,
        metric="hamming",
        bits=2,
        backend="tiered",
        bank_rows=8,
        backend_options=OPTIONS,
    )


def _reference(index, queries, k):
    """A fresh index over the same live set: the ground truth any
    mutation history must reproduce."""
    fresh = _index()
    live = np.flatnonzero(index._alive)
    fresh.add(index._vectors[live], ids=index._ids[live])
    return fresh.search(queries, k=k)


class TestIncrementalShadowSync:
    """Name kept for test-id continuity: the subject is now the tiered
    backend's own coarse tier, not a shadow."""

    def test_interleaved_mutations_stay_correct(self, rng):
        """Adds, removes, a compact and more adds, searching between each:
        the coarse tier must always answer like a fresh build."""
        index = _index()
        index.add(rng.integers(0, 4, size=(10, 10)))
        queries = rng.integers(0, 4, size=(5, 10))
        for step in range(4):
            index.add(rng.integers(0, 4, size=(3, 10)))
            live = np.flatnonzero(index._alive)
            index.remove([int(index._ids[live[step]])])
            if step == 2:
                index.compact()
            result = index.search(queries, k=2)
            reference = _reference(index, queries, 2)
            assert np.array_equal(result.ids, reference.ids)
            assert np.array_equal(result.distances, reference.distances)
