"""One cell configuration per (solved encoding, dims, tech).

Every :class:`repro.core.FeReX` of one configuration shares one
:class:`repro.core.cell_config.CellConfiguration`: the specialised
tech, the DM, the store / search tables, the bias alphabet and the
kernel's value table are derived once per process, handed out
read-only, and an engine holds only its array and rows.  Routing reads
the value table from its own cluster banks instead of building an
engine for it.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import cell_config
from repro.core import engine as engine_module
from repro.core.encoding import CellEncoding
from repro.core.engine import FeReX
from repro.devices.tech import TechConfig, VariationParams
from repro.index import FerexIndex

DIMS = 8
SHARED = (
    "encoding",
    "tech",
    "dm",
    "_store_lut",
    "_search_volt_lut",
    "_search_mult_lut",
)


def _scaled_variation_tech(scale=2.0):
    """A non-default technology, as the variation ablation sweeps it."""
    base = VariationParams()
    params = dataclasses.replace(
        base,
        sigma_vth=base.sigma_vth * scale,
        sigma_r_rel=base.sigma_r_rel * scale,
    )
    return dataclasses.replace(TechConfig(), variation=params)


def _count(monkeypatch, owner, name):
    """Count calls of ``owner.name`` (still calling through)."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture
def cold(monkeypatch):
    """Empty solve and configuration caches."""
    monkeypatch.setattr(engine_module, "_SOLVED_CELLS", {})
    monkeypatch.setattr(engine_module, "_CONFIGURATIONS", {})


def test_engines_of_one_configuration_share_it():
    rng = np.random.default_rng(0)
    stored = rng.integers(0, 4, size=(5, DIMS))
    engines = [
        FeReX("manhattan", 2, DIMS),
        FeReX("manhattan", 2, DIMS, seed=3),
        FeReX("manhattan", 2, DIMS, seed=4, tech=TechConfig()),
    ]
    for engine in engines:
        engine.program(stored)
    first = engines[0]
    for engine in engines[1:]:
        assert engine.cell is first.cell
        for name in SHARED:
            assert getattr(engine, name) is getattr(first, name)
        assert engine.value_lut()[0].base is first.value_lut()[0].base


def test_index_banks_share_one_configuration():
    index = FerexIndex(dims=DIMS, metric="hamming", bits=2, bank_rows=4)
    index.add(np.random.default_rng(1).integers(0, 4, size=(14, DIMS)))
    cells = {id(engine.cell) for engine in index.backend.engines}
    assert index.backend.n_banks == 4
    assert len(cells) == 1


def test_every_shared_array_is_read_only():
    engine = FeReX("euclidean", 1, DIMS)
    cell = engine.cell
    lut, _ = cell.value_table
    arrays = [
        cell.store_lut,
        cell.search_volt_lut,
        cell.search_mult_lut,
        cell.sl_alphabet,
        cell.dl_alphabet,
        cell.dm.values,
        lut,
        engine.value_lut()[0],
    ]
    for array in arrays:
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        cell.store_lut[0, 0] = 0


def test_dims_separate_configurations():
    narrow = FeReX("manhattan", 2, DIMS)
    wide = FeReX("manhattan", 2, 2 * DIMS)
    assert wide.encoding is narrow.encoding
    assert wide.cell is not narrow.cell
    assert wide.cell.sl_alphabet.shape[1] == 2 * narrow.physical_cols


def test_tech_separates_configurations():
    default = FeReX("hamming", 2, DIMS, seed=1)
    varied = FeReX("hamming", 2, DIMS, seed=1, tech=_scaled_variation_tech())
    assert varied.encoding is default.encoding
    assert varied.cell is not default.cell
    assert varied.tech.variation != default.tech.variation
    again = FeReX("hamming", 2, DIMS, seed=2, tech=_scaled_variation_tech())
    assert again.cell is varied.cell


def test_resolved_encoder_separates_configurations():
    auto = FeReX("hamming", 2, DIMS)
    csp = FeReX("hamming", 2, DIMS, encoder="csp")
    constructive = FeReX("hamming", 2, DIMS, encoder="constructive")
    assert csp.cell is auto.cell
    assert constructive.cell is not auto.cell
    assert constructive.encoding != auto.encoding


def test_a_fresh_solve_gets_a_fresh_configuration(monkeypatch):
    warm = FeReX("manhattan", 2, DIMS)
    monkeypatch.setattr(engine_module, "_SOLVED_CELLS", {})
    cold = FeReX("manhattan", 2, DIMS)
    assert cold.encoding is not warm.encoding
    assert cold.cell is not warm.cell
    assert cold.cell.encoding is cold.encoding


def test_a_warm_build_derives_nothing(monkeypatch):
    FeReX("manhattan", 6, 32).value_lut()
    searches = _count(monkeypatch, CellEncoding, "search_voltages_for")
    compiles = _count(monkeypatch, cell_config, "compile_current_lut")
    engine = FeReX("manhattan", 6, 32, seed=9)
    engine.value_lut()
    assert searches == []
    assert compiles == []


def test_a_six_bit_index_compiles_its_value_table_once(monkeypatch, cold):
    compiles = _count(monkeypatch, cell_config, "compile_current_lut")
    rng = np.random.default_rng(2)
    index = FerexIndex(dims=32, metric="manhattan", bits=6)
    index.add(rng.integers(0, 64, size=(8192, 32)))
    index.search(rng.integers(0, 64, size=(4, 32)), 10)
    assert index.backend.n_banks == 8
    assert len(compiles) == 1


def test_a_routed_search_builds_no_engine(monkeypatch):
    rng = np.random.default_rng(3)
    index = FerexIndex(
        dims=DIMS,
        metric="manhattan",
        bits=2,
        bank_rows=8,
        backend="routed",
        backend_options={"n_clusters": 4, "top_p": 2, "routing_seed": 3},
    )
    index.add(rng.integers(0, 4, size=(60, DIMS)))
    built = _count(monkeypatch, FeReX, "__init__")
    index.search(rng.integers(0, 4, size=(5, DIMS)), 4)
    assert built == []
    assert any(c.kernel is not None for c in index.backend._clusters)
