"""Surface guard for the one score -> select search pipeline.

Cheap structural assertions that a second search path has not grown
back: the index takes no per-call mode, the crossbar exposes no block
size knob, and exactly one array method ranks batch competition
currents (through :func:`repro.circuits.lta.stable_top_k`).
"""

import inspect

from repro.arch.crossbar import FeReXArray
from repro.core.engine import FeReX
from repro.index import FerexIndex

SEARCH_METHODS = (
    "search",
    "search_k",
    "search_batch",
    "search_k_batch",
    "search_batch_values",
    "search_k_batch_values",
    "readout_batch_values",
    "readout_batch",
)


def test_index_search_signature_has_no_mode():
    parameters = inspect.signature(FerexIndex.search).parameters
    assert list(parameters) == ["self", "queries", "k"]
    assert parameters["k"].default == 1


def test_no_crossbar_search_method_takes_chunk():
    for owner in (FeReXArray, FeReX):
        for name in SEARCH_METHODS:
            method = getattr(owner, name, None)
            if method is not None:
                assert "chunk" not in inspect.signature(method).parameters


def test_exactly_one_array_method_ranks_batch_currents():
    """Ranking = an argsort, a stable top-k or a batched LTA decision
    in the method's own source; everything else must delegate to it."""
    ranking = [
        name
        for name, member in vars(FeReXArray).items()
        if inspect.isfunction(member)
        and any(
            call in inspect.getsource(member)
            for call in ("argsort(", "stable_top_k(", "decide_batch(")
        )
    ]
    assert ranking == ["_select"]


def test_select_does_not_sort_whole_rows():
    source = inspect.getsource(FeReXArray._select)
    assert "stable_top_k(" in source
    assert "argsort(" not in source
