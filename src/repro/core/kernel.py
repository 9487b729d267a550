"""The quantized integer search kernel: gather + blocked reduction.

FeReX search is physically a table lookup.  Device physics fixes one
current per (stored state, bias), so under ideal devices a bank search
decomposes into

1. **compile** (once per write generation): every cell's *code* is the
   value stored in it (an unwritten cell reads the erased code), and
   every (query value, stored value) pair maps onto an integer *score*
   — the cell's current snapped to the configuration's power-of-two
   quantum;
2. **search** (per batch): gather the scores selected by the query's
   value indices and reduce them per row.

A compiled :class:`LUTKernel` also grows row by row, as the array is
written: :meth:`LUTKernel.append` compiles only the new rows' codes,
base entries and plane entries.  A fresh compile fits its rows exactly;
an append that outgrows the buffers regrows them to
:func:`headroom` rows, ``n + n // 8``, so a stream of small appends
costs amortised work in proportion to the rows written while the idle
capacity stays an eighth (a 2x doubling's spare half cost real peak
memory on a 100k-row routed index).  Codes stay in the integer dtype
they were compiled from (a routed cluster's int8 code mirror, an
engine's int64 stored values).

Layout.  Each query value ``v >= 1`` owns one plane ``lut[v] -
lut[0]`` over the rows' codes, held one of three ways:

* *stacked* — a delta row whose raw entries fit float32 exactly
  (``cells x max |delta| < 2**24``): every such plane sits side by side
  in one row-major ``(capacity, cells, planes)`` float32 block, scored
  by **one** product with the ``(n, cells x planes)`` one-hot operand
  (a distance table's planes, the routing centroid table's);
* *scaled* — its gcd ``g`` times small integers that fit float32: its
  own row-major ``(capacity, cells)`` buffer and product, scaled by
  ``g`` (a 1-bit current LUT's single plane);
* *wide* — the float64 delta itself: ``(cells, capacity)`` rows of one
  C-ordered wide matrix whose first row is the base, so the base and
  every float64 plane take one ``[1 | one-hot]`` product.

A float32 product runs as ``plane @ mask.T`` when the kernel holds at
least as many rows as the batch (a bank or a cluster: OpenBLAS's fast
orientation for a short mask, 420 against 690 µs for a 1024 x 512
plane and 32 queries on one thread of a 2-vCPU Xeon), and as
``mask @ plane.T`` otherwise (the routing centroid kernel against a
training set, where that orientation is the faster one).  Every index
search and served read runs its products on one BLAS thread
(:mod:`repro.core.blas`); a second one would only spin.

This module implements both halves, device-agnostically.  One
:class:`LUTKernel` over stored value codes and the configuration's value
LUT (:meth:`repro.core.FeReX.value_lut`) scores a bank (wrapped in
:class:`QuantizedKernel` by the engine that wrote it) or a routed
cluster; the same class scores routing centroids
(:mod:`repro.index.routing`: many rows against a few reused centroids,
over the metric's per-element distance table).  A routed cluster whose
configuration certifies its distance matrix
(:attr:`repro.core.cell_config.CellConfiguration.distance_table`)
compiles its planes from that small integer table instead and selects
through :meth:`LUTKernel.top_k`: one float32 product scores every row's
integer DM distance ``D``, and exact value scores are gathered only for
the rows that can still win.  Exact software distances are
:meth:`repro.core.DistanceMetric.pairwise`'s job, not the kernel's.

Exactness discipline
--------------------
Everything downstream (serial == batch bit-identity, backend parity,
reconfigure round trips) hangs on one invariant: **kernel arithmetic is
exact**, hence independent of evaluation order, blocking, and BLAS
kernel choice.  Four choices guarantee it:

* the quantum is a power of two, chosen by :func:`select_quantum` so the
  largest possible partial sum stays below ``2**53`` — every LUT entry,
  every partial sum, and every product in the reduction is an integer
  that float64 represents exactly, so a float matmul and an int64
  gather-accumulate produce the *same* scores;
* a plane is float32 only while ``cells x`` its largest entry stays
  below ``2**24`` (float32's exact-integer range).  A one-hot query
  selects one value per cell, so a stacked block's partial sums add at
  most ``cells`` nonzero terms, each of one plane, and stay exact like
  a lone plane's.  The ``g x`` product and the running total are
  float64, inside the ``2**53`` bound;
* the accumulator dtype comes from :func:`select_accumulator`'s overflow
  bound on ``cells x max |entry|``; a geometry that cannot satisfy the
  bound raises :class:`KernelOverflowError` instead of wrapping;
* a distance kernel selects in ``D`` only where the configuration's
  certificate proves that the value order refines the ``D`` order
  (``cells x`` the spread of the per-cell leakage residual stays below
  one unit current), so every row outside the candidates ``D <= D_k``
  scores strictly above ``k`` of them; the candidates' exact scores
  decide.

Reconstructed currents (``score * quantum``) are exact float64 products,
so the quantization changes readings by at most half a quantum per cell
— far below one unit current: rounded distances equal the float
physics'.  Tie order does not survive.  Rows whose modelled currents tie
exactly sum the same per-cell floats in different orders on the float
path, which ranks them by summation noise; exact kernel scores tie
exactly and rank by row.  On an ideal 256 x 64 bank with 64 random
queries at k = 10, the two paths return different ids on 1 to 52 of the
queries, depending on metric and bit width, with equal rounded
distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..circuits.lta import integer_top_k

#: Largest exponent ``b`` such that every integer of magnitude < ``2**b``
#: is exactly representable in float64 — the bound that makes the matmul
#: and integer-gather formulations bit-identical.
EXACT_FLOAT_BITS = 53

#: The same bound for float32: a plane whose ``cells x max |small|``
#: stays below ``2**EXACT_FLOAT32_BITS`` reduces exactly in float32.
EXACT_FLOAT32_BITS = 24

#: The quantum must stay at least this many binary orders below the
#: reference current (one nominal unit current for the crossbar kernel),
#: so the rounding, at most half a quantum per cell, stays far below one
#: distance unit.
MIN_RESOLUTION_BITS = 24


class KernelOverflowError(OverflowError):
    """The requested geometry cannot be reduced exactly.

    Raised by :func:`select_accumulator` / :func:`select_quantum` when
    the ``cells x max_entry`` overflow bound exceeds the exact-integer
    range, instead of silently wrapping or losing low bits.
    """


def accumulator_bound(cells: int, max_entry: int) -> int:
    """Worst-case partial-sum magnitude when reducing ``cells`` LUT
    entries of magnitude ``<= max_entry``.

    The factor 2 covers the matmul formulation's mixed-sign deltas
    (``lut[v] - lut[0]``) on top of the all-positive base row, so the
    same bound certifies both reduction strategies.
    """
    if cells < 0 or max_entry < 0:
        raise ValueError("cells and max_entry must be >= 0")
    return 2 * int(cells) * int(max_entry)


def select_accumulator(cells: int, max_entry: int) -> np.dtype:
    """Accumulator dtype for an exact ``cells``-term reduction.

    Returns ``int32`` when the overflow bound fits, ``int64`` otherwise;
    raises :class:`KernelOverflowError` when even int64/float64 exact
    range (``2**53``) cannot hold the bound.
    """
    bound = accumulator_bound(cells, max_entry)
    if bound >= 1 << EXACT_FLOAT_BITS:
        raise KernelOverflowError(
            f"reducing {cells} LUT entries of magnitude <= {max_entry} "
            f"needs {bound.bit_length()} bits, beyond the "
            f"{EXACT_FLOAT_BITS}-bit exact-integer range; shrink dims "
            "or coarsen the LUT quantum"
        )
    return np.dtype(np.int32 if bound < 1 << 31 else np.int64)


def select_quantum(max_value: float, cells: int, reference: float) -> float:
    """The power-of-two quantum for a LUT whose raw entries reach
    ``max_value``, reduced over ``cells`` terms.

    The quantum is the smallest power of two that keeps the overflow
    bound strictly below ``2**53`` (so the reduction is exact in int64
    *and* float64), provided it stays at least ``2**-MIN_RESOLUTION_BITS``
    below ``reference`` (one unit current for the crossbar) — beyond
    that the geometry is too large for a faithful integer kernel and
    :class:`KernelOverflowError` is raised.
    """
    if cells < 1:
        raise ValueError("cells must be >= 1")
    if reference <= 0:
        raise ValueError("reference must be > 0")
    ceiling = reference * 2.0**-MIN_RESOLUTION_BITS
    if max_value <= 0:
        return ceiling
    # Smallest 2**e with 2 * cells * (max_value / 2**e) < 2**53.
    needed = 2.0 * cells * max_value / (1 << EXACT_FLOAT_BITS)
    _, exponent = math.frexp(needed)  # needed <= 2**exponent, strictly <
    quantum = math.ldexp(1.0, exponent)
    if quantum > ceiling:
        raise KernelOverflowError(
            f"{cells} cells at peak value {max_value:.3e} need a "
            f"quantum of {quantum:.3e}, coarser than the "
            f"{ceiling:.3e} resolution floor ({reference:.3e} * "
            f"2**-{MIN_RESOLUTION_BITS}); the geometry exceeds the "
            "exact integer kernel's bound"
        )
    return quantum


def headroom(rows: int) -> int:
    """Capacity a buffer regrows to when an append takes it past its
    end: ``rows + rows // 8``.  A 2x doubling's idle half costs real
    peak memory on a 100k-row routed index; an eighth keeps a stream of
    small appends amortised O(rows written)."""
    return rows + rows // 8


def regrown(prefix: np.ndarray, size: int, axis: int = 0) -> np.ndarray:
    """A fresh C-ordered buffer, ``size`` long on ``axis``, whose
    leading part copies ``prefix``."""
    pad = [(0, 0)] * prefix.ndim
    pad[axis] = (0, size - prefix.shape[axis])
    return np.pad(prefix, pad)


def plane_factors(lut: np.ndarray, cells: int) -> list:
    """One ``(g, small)`` per query value ``v >= 1``: the delta row
    ``lut[v] - lut[0] == g x small`` as a kernel over ``cells`` cells
    holds it.  The raw delta in float32 (``g = 1``, a stacked plane)
    when ``cells x max |delta| < 2**24``; else its gcd ``g`` times
    float32 small integers when those fit (a scaled plane, ``g > 1``);
    else the float64 delta itself (``g = 1``).  It depends on the LUT
    and ``cells`` alone, never on the rows."""
    out = []
    for delta in lut[1:] - lut[0]:
        peak = int(np.abs(delta).max(initial=0))
        g = 1
        if cells * peak >= 1 << EXACT_FLOAT32_BITS:
            g = int(np.gcd.reduce(delta)) or 1
        if cells * (peak // g) < 1 << EXACT_FLOAT32_BITS:
            out.append((g, (delta // g).astype(np.float32)))
        else:
            out.append((1, delta.astype(np.float64)))
    return out


#: Largest ``rows x n`` product :func:`_product` computes as
#: ``(plane @ mask.T).T``: a result past a few MiB leaves the cache, and
#: reading it transposed then costs more than the orientation saves
#: (100 000 x 32 stacked 2-bit planes: 31 ms against 19 ms for
#: ``mask @ plane.T``, one thread of a 2-vCPU Xeon; 8192 x 32: 1.0
#: against 1.2 ms).
TRANSPOSED_PRODUCT_MAX = 1 << 18


def _product(plane: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``mask @ plane.T``, (n, rows), in OpenBLAS's faster orientation:
    ``(plane @ mask.T).T`` when the plane holds at least as many rows
    as the mask and the result stays within
    :data:`TRANSPOSED_PRODUCT_MAX` entries."""
    rows, n = len(plane), len(mask)
    if n <= rows and rows * n <= TRANSPOSED_PRODUCT_MAX:
        return (plane @ mask.T).T
    return mask @ plane.T


class LUTKernel:
    """Integer gather + reduce over (codes, lut).

    Parameters
    ----------
    codes:
        (rows, cells) small-integer code per cell — the stored value,
        or the erased code where nothing was written.  Kept in its
        integer dtype.
    lut:
        (n_values, n_codes) integer score per (query value, code).
    distance:
        Optional (n_values, n_codes) integer distance table whose row
        order the value order refines (a configuration's certified
        :attr:`~repro.core.cell_config.CellConfiguration.distance_table`).
        Given one, the planes compile from it and :meth:`top_k`
        selects in it; scores stay ``lut``'s.

    ``scores(value_index)`` evaluates, for each query row of the
    (n, cells) ``value_index``, the per-row reduction
    ``sum_c lut[value_index[q, c], codes[r, c]]`` — exactly.  Two
    interchangeable strategies are provided (their equality is a
    regression test):

    * :meth:`scores` — the matmul formulation
      ``base[r] + sum_v g_v * (Q_v @ P_v.T)`` with ``Q_v`` the one-hot
      query mask for value ``v`` and the ``(rows, cells)`` plane
      ``P_v = small_v[codes]`` (:func:`plane_factors`): the stacked
      float32 planes as one product of one block, each scaled float32
      plane as a product of its own, oriented by shape
      (:func:`_product`), and the base with every float64 plane as one
      product of the wide matrix.  Every partial sum is an exact
      integer, so BLAS evaluates it exactly regardless of kernel, order
      or orientation — this is the numpy hot path.  A distance kernel's
      planes hold distances, so its :meth:`scores` (tests only) is the
      gather.
    * :meth:`scores_gather` — the literal gather + blocked integer
      reduction in the accumulator dtype :func:`select_accumulator`
      picked.  The reference semantics, and the shape the kernel takes
      on gather-friendly accelerators.

    :meth:`append` adds rows in place.  ``g_v``, ``small_v``, the plane
    kinds and the accumulator depend on the tables and ``cells`` alone,
    never on the rows, so an appended kernel equals one compiled over
    all its codes, bit for bit.
    """

    def __init__(
        self,
        codes: np.ndarray,
        lut: np.ndarray,
        distance: Optional[np.ndarray] = None,
    ):
        codes = np.asarray(codes)
        lut = np.asarray(lut)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got {codes.shape}")
        if lut.ndim != 2:
            raise ValueError(f"lut must be 2-D, got {lut.shape}")
        if not np.issubdtype(lut.dtype, np.integer):
            raise ValueError("lut must be an integer table")
        #: Rows compiled so far; every buffer below holds at least as
        #: many (a fresh compile exactly as many).
        self.rows, self.cells = codes.shape
        self.n_values = lut.shape[0]
        self.lut = lut.astype(np.int64, copy=False)
        #: The table the planes compile from and :meth:`top_k` selects
        #: in; ``None`` when that is ``lut`` itself.
        self.distance = None
        planar = self.lut
        if distance is not None:
            planar = self.distance = self._validate_distance(distance)
        codes = self._validate_codes(codes)
        # Narrow codes stay narrow while every symbol fits their dtype.
        fits = codes.dtype.kind in "iu" and (
            np.iinfo(codes.dtype).max >= lut.shape[1] - 1
        )
        self._codes = codes if fits else codes.astype(np.int64)
        max_entry = int(np.abs(self.lut).max()) if self.lut.size else 0
        #: Accumulator dtype certified by the overflow bound.
        self.accumulator = select_accumulator(self.cells, max_entry)
        self._base_lut = planar[0]
        # One (g, small) per value v >= 1.  The stacked ones, in value
        # order, are the columns of the (n_codes, planes) table the
        # block gathers from and of the (n_values, planes) one-hot
        # table a query's operand gathers from.
        self._small = plane_factors(planar, self.cells)
        stacked = [
            v
            for v, (g, small) in enumerate(self._small, start=1)
            if g == 1 and small.dtype == np.float32
        ]
        self._table = np.zeros((lut.shape[1], len(stacked)), np.float32)
        for column, v in enumerate(stacked):
            self._table[:, column] = self._small[v - 1][1]
        onehot = np.equal.outer(np.arange(self.n_values), stacked)
        self._onehot = onehot.astype(np.float32)
        wide = sum(small.dtype == np.float64 for _, small in self._small)
        self._wide = np.empty((1 + wide * self.cells, self.rows))
        # A fresh float32 buffer is its own C-ordered gather: one
        # allocated ahead of the gather left heap holes that cost an
        # 8 x 1024 x 512 bank index 14 MiB of peak RSS.
        self._layout(
            self._table[codes],
            (small[codes] for _, small in self._scaled(self._small)),
        )
        self._compile(codes, 0, narrow=False)

    def _validate_distance(self, distance: np.ndarray) -> np.ndarray:
        """``distance`` as int64, checked: shaped like ``lut``, integer,
        non-negative, and every row sum below ``2**24`` — so each of its
        planes stacks and a row's distance is exact in float32."""
        distance = np.asarray(distance)
        if distance.shape != self.lut.shape or distance.dtype.kind != "i":
            raise ValueError("distance must be an integer table like lut")
        peak = int(distance.max(initial=0))
        bound = self.cells * peak < 1 << EXACT_FLOAT32_BITS
        if distance.min(initial=0) < 0 or not bound:
            raise ValueError(
                f"{self.cells} cells of distances in [0, {peak}] must "
                f"sum below 2**{EXACT_FLOAT32_BITS}"
            )
        return distance.astype(np.int64, copy=False)

    @staticmethod
    def _scaled(pairs):
        """The scaled float32 ``(g, plane)`` pairs of ``pairs``."""
        return (
            (g, plane)
            for g, plane in pairs
            if plane.dtype == np.float32 and g != 1
        )

    def _layout(self, block: np.ndarray, scaled) -> None:
        """Bind ``_base`` and every float64 plane to their rows of the
        wide matrix, the stacked planes to their slices of the
        ``(capacity, cells, planes)`` ``block``, and the scaled planes,
        in value order, to ``scaled``."""
        self._block = block
        wide = (
            self._wide[top : top + self.cells]
            for top in range(1, len(self._wide), self.cells)
        )
        stacked = (block[:, :, s] for s in range(block.shape[2]))
        scaled = iter(scaled)
        self._base = self._wide[0]
        planes = []
        for g, small in self._small:
            if small.dtype == np.float64:
                planes.append((g, next(wide)))
            elif g == 1:
                planes.append((g, next(stacked)))
            else:
                planes.append((g, next(scaled)))
        self._planes = planes

    def _compile(
        self, codes: np.ndarray, start: int, narrow: bool = True
    ) -> None:
        """Write ``codes``' base entries and float64 plane columns from
        row ``start`` on, and their float32 plane rows if ``narrow``."""
        stop = start + len(codes)
        self._base[start:stop] = self._base_lut[codes].sum(axis=1)
        for (_, small), (g, plane) in zip(self._small, self._planes):
            if small.dtype == np.float64:
                plane[:, start:stop] = small[codes.T]
            elif narrow and g != 1:
                plane[start:stop] = small[codes]
        if narrow:
            self._block[start:stop] = self._table[codes]

    @property
    def codes(self) -> np.ndarray:
        """(rows, cells) compiled codes, in their compiled dtype."""
        rows = self.rows  # before the buffer: an append moves it last
        return self._codes[:rows]

    @property
    def nbytes(self) -> int:
        """Bytes the planes and the base hold, idle capacity included
        (codes excluded)."""
        scaled = self._scaled(self._planes)
        return (
            self._wide.nbytes
            + self._block.nbytes
            + sum(plane.nbytes for _, plane in scaled)
        )

    def _validate_codes(self, codes: np.ndarray) -> np.ndarray:
        if codes.ndim != 2 or codes.shape[1] != self.cells:
            raise ValueError(
                f"expected (n, {self.cells}) codes, got {codes.shape}"
            )
        if codes.size and (
            codes.min() < 0 or codes.max() >= self.lut.shape[1]
        ):
            raise ValueError(
                f"codes outside the [0, {self.lut.shape[1]}) symbol range"
            )
        return codes

    def append(self, codes: np.ndarray) -> None:
        """Compile (n, cells) more ``codes`` after the last row.

        Only the new rows' codes, base entries and plane entries are
        computed.  Buffers they would overflow regrow to
        :func:`headroom` rows first.  ``g``, ``small`` and every dtype
        depend on the tables alone, so the result equals one kernel over
        all the codes, bit for bit.  ``rows`` moves last, so a reader
        that read it earlier still scores a consistent prefix."""
        codes = self._validate_codes(np.asarray(codes))
        start, stop = self.rows, self.rows + len(codes)
        if stop > len(self._base):
            size = headroom(stop)
            self._codes = regrown(self._codes[:start], size)
            self._wide = regrown(self._wide[:, :start], size, axis=1)
            self._layout(
                regrown(self._block[:start], size),
                (
                    regrown(plane[:start], size)
                    for _, plane in self._scaled(self._planes)
                ),
            )
        self._codes[start:stop] = codes
        self._compile(codes, start)
        self.rows = stop

    def _validate_index(self, value_index: np.ndarray) -> np.ndarray:
        value_index = np.asarray(value_index)
        if value_index.ndim != 2 or value_index.shape[1] != self.cells:
            raise ValueError(
                f"expected (n, {self.cells}) value index, got "
                f"{value_index.shape}"
            )
        if value_index.size and (
            value_index.min() < 0 or value_index.max() >= self.n_values
        ):
            raise ValueError(f"value index outside [0, {self.n_values})")
        return value_index

    def scores(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) reduction scores, exactly integer-valued float64.

        A distance kernel's planes hold distances, so it answers with
        :meth:`scores_gather`; every other kernel reduces its planes
        (:meth:`_reduce`)."""
        if self.distance is not None:
            return self.scores_gather(value_index)
        return self._reduce(self._validate_index(value_index))

    def _reduce(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) row sums of the table the planes compile from,
        exactly integer-valued float64.

        One product of the ``[1 | one-hot(value_index)]`` operand with
        the wide matrix sums each row's base and float64 deltas: every
        partial sum is the base plus at most ``cells`` deltas, the terms
        :func:`accumulator_bound` certifies.  One product of the
        ``(n, cells x planes)`` one-hot operand with the stacked block,
        and one per scaled plane, are exact below ``2**24`` in either
        orientation; scaling a scaled plane's product by ``g`` and
        adding every product to the float64 total stay exact below
        ``2**53`` (``np.multiply`` with ``dtype=float64``: a float32
        array times a Python int would stay float32).  Without float64
        planes the first float32 product and the base are summed into
        a C-ordered total (a one-column product costs several times a
        broadcast)."""
        n, cells = value_index.shape
        rows, wide, planes = self.rows, self._wide, self._planes
        out = None
        if len(wide) > 1:
            operand = np.zeros((n, len(wide)))
            operand[:, 0], top = 1.0, 1
            for v, (_, plane) in enumerate(planes, start=1):
                if plane.dtype == np.float64:
                    operand[:, top : top + cells] = value_index == v
                    top += cells
            out = operand @ wide[:, :rows]
        if self._onehot.shape[1]:
            product = self._stacked_product(value_index, rows)
            if out is None:
                out = np.empty((n, rows))
                np.add(product, wide[0, :rows], out=out)
            else:
                out += product
        for v, (g, plane) in enumerate(planes, start=1):
            if plane.dtype != np.float32 or g == 1:
                continue
            mask = value_index == v
            if not mask.any():
                continue
            product = _product(plane[:rows], mask.astype(np.float32))
            if out is None:
                out = np.multiply(
                    product, g, out=np.empty((n, rows)), dtype=np.float64
                )
                out += wide[0, :rows]
            else:
                out += np.multiply(product, g, dtype=np.float64)
        if out is None:
            out = np.empty((n, rows))
            out[:] = wide[0, :rows]
        return out

    def _stacked_product(
        self, value_index: np.ndarray, rows: int
    ) -> np.ndarray:
        """(n, rows) float32 product of the ``(n, cells x planes)``
        one-hot operand with the stacked block's first ``rows`` rows."""
        n, cells = value_index.shape
        width = cells * self._onehot.shape[1]
        mask = np.take(self._onehot, value_index, axis=0)
        block = self._block[:rows].reshape(rows, width)
        return _product(block, mask.reshape(n, width))

    def top_k(
        self,
        value_index: np.ndarray,
        k: int,
        alive: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, scores)``, each (n, k) int64: per query the ``k``
        rows ``alive`` keeps with the smallest exact scores, in (score,
        row) order, and those scores — exactly
        :func:`repro.circuits.lta.integer_top_k` over :meth:`scores`,
        for ``1 <= k <=`` live rows.

        A value kernel selects on its full score matrix.  A distance
        kernel scores every row's distance ``D`` with its planes (one
        product of the stacked block), takes each query's ``k``-th
        smallest live ``D`` by ``np.partition``, and gathers exact
        scores from ``lut`` only for the candidates with
        ``D <= D_k``.  The distance table's certificate makes the
        value order refine the ``D`` order, so any other row scores
        above ``k`` candidates and cannot win."""
        value_index = self._validate_index(value_index)
        if self.distance is None:
            raw = self._reduce(value_index).astype(np.int64)
            local = integer_top_k(raw, k, alive)
            return local, raw[np.arange(len(raw))[:, None], local]
        n, rows = len(value_index), self.rows
        # The base, exact in float32 below 2**24; a dead row's is inf.
        offset = self._base[:rows].astype(np.float32)
        if alive is not None:
            offset[~alive] = np.inf
        distance = np.empty((n, rows), np.float32)
        np.add(self._stacked_product(value_index, rows), offset, out=distance)
        kth = np.partition(distance, k - 1, axis=1)[:, k - 1 : k]
        query, row = np.divmod(np.flatnonzero(distance <= kth), rows)
        width = np.int64(self.lut.shape[1])  # a narrow index must widen
        cells = value_index[query] * width + self._codes.take(row, axis=0)
        score = self.lut.take(cells).sum(axis=1)
        # Candidates come query-major, rows ascending: a stable sort on
        # (query, score) leaves equal scores in row order.
        order = np.lexsort((score, query))
        first = np.searchsorted(query, np.arange(n))
        pick = order[first[:, None] + np.arange(k)]
        return row[pick], score[pick]

    def scores_gather(
        self, value_index: np.ndarray, block: Optional[int] = None
    ) -> np.ndarray:
        """(n, rows) scores via the literal gather + blocked reduction.

        Bit-identical to :meth:`scores` (both are exact); kept as the
        reference semantics and for accumulator-dtype verification.
        ``block`` bounds the gathered (block, rows, cells) tensor.
        """
        value_index = self._validate_index(value_index)
        n = value_index.shape[0]
        codes = self.codes
        if block is None:
            block = max(1, (1 << 20) // max(1, codes.size))
        block = max(1, block)
        out = np.empty((n, len(codes)), dtype=np.int64)
        for start in range(0, n, block):
            stop = min(start + block, n)
            gathered = self.lut[
                value_index[start:stop, None, :], codes[None, :, :]
            ]
            out[start:stop] = gathered.sum(axis=2, dtype=self.accumulator)
        return out.astype(np.float64)


@dataclass
class QuantizedKernel:
    """A :class:`LUTKernel` in the current domain: integer scores plus
    the power-of-two quantum that maps them back to amps.

    Compiled by the :class:`repro.core.FeReX` engine that wrote the
    array, from the values it stored, at the configuration's value LUT
    and quantum; valid for exactly one write generation.

    ``kernel`` covers the written row prefix only.  Every row from
    ``kernel.rows`` to ``rows`` holds the ``erased`` code in every
    cell, so its score is the one exact integer
    ``sum_c lut[value_index[q, c], erased]`` per query, broadcast into
    the tail: full-width scores equal a kernel compiled over all rows.
    """

    kernel: LUTKernel
    #: Amps per score unit (a power of two: ``score * quantum`` is an
    #: exact float64 product).
    quantum: float
    #: Full array height the scores span.
    rows: int
    #: The erased cell's code (the LUT's last column).
    erased: int

    @property
    def codes(self) -> np.ndarray:
        return self.kernel.codes

    @property
    def lut(self) -> np.ndarray:
        return self.kernel.lut

    def _scores(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) exact scores: the kernel over the prefix, the
        erased row's score over the tail."""
        prefix = self.kernel.scores(value_index)
        if self.rows == self.kernel.rows:
            return prefix
        out = np.empty((len(prefix), self.rows))
        out[:, : self.kernel.rows] = prefix
        out[:, self.kernel.rows :] = self.lut[
            np.asarray(value_index), self.erased
        ].sum(axis=1, keepdims=True)
        return out

    def row_scores(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) integer scores (int64) — the masking/ranking
        domain."""
        return self._scores(value_index).astype(np.int64)

    def row_currents(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) row currents in amps, exact ``score * quantum``
        float64 products."""
        return self._scores(value_index) * self.quantum
