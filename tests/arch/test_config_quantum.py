"""The kernel quantum belongs to the configuration, not the content.

An array compiles its integer kernel at a power-of-two quantum picked
from a peak current.  Read over the symbols a bank happens to hold,
that peak — hence the quantum, hence every quantised distance — moved
with the content, so one stored row read differently depending on
which bank held it, and a routed index re-pinning rows into other
banks disagreed with flat search on ties.  The engine registers its
store alphabet and the peak covers all of it, so every bank of one
configuration shares one quantum.
"""

import numpy as np
import pytest

from repro.core.engine import FeReX
from repro.index import FerexIndex

DIMS = 6


def _quantum(engine):
    compiled = engine.quantized_kernel()
    assert compiled is not None
    return compiled.quantum


def _every_value(metric, bits):
    """An engine holding every value of the alphabet."""
    engine = FeReX(metric=metric, bits=bits, dims=DIMS)
    engine.program(np.arange(1 << bits)[:, None].repeat(DIMS, axis=1))
    return engine


@pytest.mark.parametrize(
    "metric,bits", [("manhattan", 3), ("euclidean", 3), ("hamming", 2)]
)
def test_lone_bank_of_middle_values_takes_the_alphabet_quantum(
    metric, bits
):
    rng = np.random.default_rng(7)
    middle = FeReX(metric=metric, bits=bits, dims=DIMS)
    middle.program(rng.integers(1, (1 << bits) - 1, size=(8, DIMS)))
    assert _quantum(middle) == _quantum(_every_value(metric, bits))
    assert _quantum(middle) == middle.value_lut()[1]


def test_erased_array_takes_the_alphabet_quantum():
    engine = FeReX(metric="manhattan", bits=3, dims=DIMS)
    engine.allocate(16)
    assert _quantum(engine) == _quantum(_every_value("manhattan", 3))


@pytest.mark.parametrize("seed", range(20))
def test_flat_and_fully_probed_routed_return_the_same_rows(seed):
    """Manhattan 3-bit, two banks of eight rows: one bank holds only
    values 1..6.  With every cluster probed, routing selects nothing
    away, so ids and distances must match flat search exactly."""
    rng = np.random.default_rng(seed)
    stored = np.concatenate(
        [
            rng.integers(1, 7, size=(8, DIMS)),
            rng.integers(0, 8, size=(8, DIMS)),
        ]
    )
    queries = rng.integers(0, 8, size=(10, DIMS))
    flat = FerexIndex(dims=DIMS, metric="manhattan", bits=3, bank_rows=8)
    routed = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=3,
        bank_rows=8,
        backend="routed",
        backend_options={"n_clusters": 2, "top_p": 2},
    )
    flat.add(stored)
    routed.add(stored)
    expected = flat.search(queries, k=16)
    found = routed.search(queries, k=16)
    assert np.array_equal(found.ids, expected.ids)
    assert np.array_equal(found.distances, expected.distances)
