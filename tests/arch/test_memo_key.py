"""A scorer memo keys a frozen alphabet by identity, any other by bytes.

:meth:`repro.arch.crossbar.FeReXArray._memo` holds one value per name
for a write generation and a bias alphabet.  The configuration's
shared alphabet is frozen — it and the arrays it views are read-only —
so it is keyed by identity and never copied.  Any other alphabet is
keyed by a snapshot of its bytes, so changing it in place rebuilds the
value instead of serving a stale one.
"""

import numpy as np

from repro.core.engine import FeReX


def _array():
    engine = FeReX(metric="manhattan", bits=2, dims=8)
    engine.program(np.random.default_rng(1).integers(0, 4, size=(6, 8)))
    return engine.array


def _memo(array, sl_values, dl_values):
    """``array``'s memoised build count for one alphabet."""
    return array._memo(
        "probe", sl_values, dl_values, lambda sl, dl: next(array.builds)
    )


def _counting_array():
    array = _array()
    array.builds = iter(range(1, 100))
    return array


def test_the_configurations_alphabet_is_keyed_by_identity():
    array = _array()
    sl, dl = array._alphabet
    kernel = array.quantized_kernel()
    key = array._scorer_cache["kernel"][0]
    assert key[1] is sl and key[2] is dl
    assert array.quantized_kernel() is kernel


def test_a_writeable_alphabet_changed_in_place_is_rebuilt():
    array = _counting_array()
    sl, dl = (values.copy() for values in array._alphabet)
    assert _memo(array, sl, dl) == 1
    assert _memo(array, sl, dl) == 1
    assert isinstance(array._scorer_cache["probe"][0][1], bytes)
    sl[0, 0] += 1.0
    assert _memo(array, sl, dl) == 2
    dl[0, 0] += 1
    assert _memo(array, sl, dl) == 3


def test_a_read_only_view_of_writeable_memory_is_keyed_by_bytes():
    array = _counting_array()
    base, dl = (values.copy() for values in array._alphabet)
    sl = base.view()
    sl.flags.writeable = False
    assert _memo(array, sl, dl) == 1
    base[0, 0] += 1.0
    assert _memo(array, sl, dl) == 2


def test_a_frozen_alphabet_is_rebuilt_for_another_object_or_generation():
    array = _counting_array()
    sl, dl = (values.copy() for values in array._alphabet)
    for values in (sl, dl):
        values.flags.writeable = False
    assert _memo(array, sl, dl) == 1
    assert _memo(array, sl, dl) == 1
    assert array._scorer_cache["probe"][0][1] is sl
    assert _memo(array, sl.copy(), dl) == 2
    array.write_generation += 1
    assert _memo(array, sl, dl) == 3
