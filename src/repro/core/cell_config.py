"""One cell configuration: what a solved cell drives and scores with.

The paper's Algorithm 1 solves one voltage configuration per distance
function, and every bank of that function repeats the same cell.  A
:class:`CellConfiguration` is that cell at one row width (``dims``) and
technology: the encoding, the technology specialised to it, the DM, the
per-value store and search tables, the full-width bias alphabet and,
built on first use, the integer value table the exact kernel gathers
from and the certified distance table a routed cluster selects in.
:class:`repro.core.engine.FeReX` builds one per (solved encoding, dims,
tech) per process and every engine of that triple shares it — which is
why every array it hands out is read-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..arch.crossbar import vth_ladder
from ..devices.cell import compile_current_lut
from ..devices.tech import TechConfig
from .dm import DistanceMatrix
from .encoding import CellEncoding
from .kernel import (
    EXACT_FLOAT32_BITS,
    KernelOverflowError,
    select_accumulator,
    select_quantum,
)


#: Slack, in unit currents, on the distance certificate's
#: ``dims x spread < 1``: it covers the float64 evaluation of the
#: residual (a few ulps of each entry, at most ``2**-22`` summed over
#: any row the exact kernel admits).
RESIDUAL_SLACK = 2.0**-20


def _read_only(array: np.ndarray) -> np.ndarray:
    """``array``, with it and every array it views made read-only, so
    nothing can change it (and a scorer may key it by identity)."""
    view = array
    while isinstance(view, np.ndarray):
        view.flags.writeable = False
        view = view.base
    return array


@dataclass(frozen=True, eq=False)
class CellConfiguration:
    """A solved cell at one row width and technology; build it with
    :meth:`build`."""

    encoding: CellEncoding
    #: The technology whose FeFET ladder and drain selector are exactly
    #: as deep as the encoding needs.
    tech: TechConfig
    dm: DistanceMatrix
    #: Cells per row: the alphabet's width and the value table's
    #: reduction length (its quantum depends on it).
    dims: int
    #: (n_stored, k) threshold level of each FeFET per stored value.
    store_lut: np.ndarray
    #: (n_search, k) search-line volts / drain multiples per query value.
    search_volt_lut: np.ndarray
    search_mult_lut: np.ndarray
    #: (n_search, dims * k) bias alphabet of the batched value path: row
    #: v holds the column biases a query of all-v elements applies
    #: (column c drives FeFET slot c % k of its cell).
    sl_alphabet: np.ndarray
    dl_alphabet: np.ndarray

    @classmethod
    def build(cls, encoding, dm, dims, tech) -> CellConfiguration:
        """The configuration of a solved ``encoding`` (a
        :class:`CellEncoding`) of the DM ``dm`` at ``dims`` cells per
        row: ``tech`` (a :class:`TechConfig`) specialised to the
        encoding, and every table derived from the two."""
        fefet = replace(tech.fefet, n_vth_levels=encoding.n_ladder_levels)
        vds = max(encoding.max_vds_multiple, tech.cell.max_vds_multiple)
        cell = replace(tech.cell, max_vds_multiple=vds)
        tech = replace(tech, fefet=fefet, cell=cell)
        store = [encoding.store_levels_for(v) for v in range(dm.n_stored)]
        pairs = [
            encoding.search_voltages_for(v, fefet) for v in range(dm.n_search)
        ]
        volts = np.array([volt for volt, _ in pairs], dtype=float)
        mults = np.array([mult for _, mult in pairs], dtype=int)
        alphabet = np.tile(volts, dims), np.tile(mults, dims)
        tables = np.array(store, dtype=int), volts, mults, *alphabet
        return cls(encoding, tech, dm, dims, *map(_read_only, tables))

    @functools.cached_property
    def value_table(self) -> Optional[Tuple[np.ndarray, float]]:
        """``(lut, quantum)`` over every stored value plus the erased
        cell, its last column: the integer score of each (query value,
        cell) pair at the power-of-two quantum their peak current fixes.
        ``None`` is the verdict that no exact kernel exists at ``dims``
        (the quantum or a ``dims``-term reduction of the LUT overflows).
        Built on first use, once per configuration."""
        erased = np.full((1, self.encoding.k), -1)
        levels = np.concatenate([self.store_lut, erased])
        ladder = vth_ladder(self.tech.fefet)[levels]
        raw = compile_current_lut(
            self.search_volt_lut, self.search_mult_lut, ladder, self.tech
        )
        unit = self.tech.cell.unit_current
        try:
            quantum = select_quantum(float(np.abs(raw).max()), self.dims, unit)
            lut = _read_only(np.rint(raw / quantum).astype(np.int64))
            select_accumulator(self.dims, int(np.abs(lut).max()))
        except KernelOverflowError:
            return None
        return lut, quantum

    @functools.cached_property
    def distance_table(self) -> Optional[np.ndarray]:
        """The DM's (n_search, n_stored) integer table, certified to
        order rows the way the value table scores them; ``None`` where
        the certificate fails or no value table exists.  Built on first
        use, once per configuration.

        Each stored value's entry is ``unit x (DM[v, s] + r[v, s])``
        after quantisation, ``r`` the OFF-state leakage plus rounding.
        Rows whose DM distances differ by at least one therefore keep
        their order in current whenever ``dims x (max r - min r)``
        stays below one unit current (less :data:`RESIDUAL_SLACK`):
        then the value order refines the distance order, which is what
        :meth:`repro.core.kernel.LUTKernel.top_k` selects by, in
        float32, so a row's distance must also stay below ``2**24``.
        The erased column is not certified; no routed cluster holds
        it."""
        table, dm = self.value_table, self.dm.values
        if (
            table is None
            or table[0][:, :-1].shape != dm.shape
            or self.dims * int(dm.max()) >= 1 << EXACT_FLOAT32_BITS
        ):
            return None
        lut, quantum = table
        unit = self.tech.cell.unit_current
        residual = lut[:, :-1] * (quantum / unit) - dm
        spread = float(residual.max() - residual.min())
        if self.dims * spread >= 1.0 - RESIDUAL_SLACK:
            return None
        return _read_only(dm.copy())
