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
memory on a 100k-row routed index).  The base row and every float64
plane are row blocks of one C-ordered ``(1 + planes x cells,
capacity)`` *wide matrix*, so a search multiplies one ``[1 | one-hot]``
operand by its ``[:, :rows]`` view once — one BLAS product per kernel,
however many rows it holds — and only gcd-scaled float32 planes take a
product of their own.  A float32 plane is row-major, ``(capacity,
cells)``: its product runs as ``plane @ mask.T`` when the kernel holds
at least as many rows as the batch (a bank or a cluster: OpenBLAS's
fast orientation for a short mask, 420 against 690 µs for a 1024 x 512
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
over the metric's per-element distance table).  Exact software
distances are :meth:`repro.core.DistanceMetric.pairwise`'s job, not the
kernel's.

Exactness discipline
--------------------
Everything downstream (serial == batch bit-identity, backend parity,
reconfigure round trips) hangs on one invariant: **kernel arithmetic is
exact**, hence independent of evaluation order, blocking, and BLAS
kernel choice.  Three choices guarantee it:

* the quantum is a power of two, chosen by :func:`select_quantum` so the
  largest possible partial sum stays below ``2**53`` — every LUT entry,
  every partial sum, and every product in the reduction is an integer
  that float64 represents exactly, so a float matmul and an int64
  gather-accumulate produce the *same* scores;
* each query value's weight plane ``lut[v] - lut[0]`` is its gcd
  ``g_v`` times small integers ``small_v``, stored in float32 when
  ``cells x max |small_v| < 2**24`` (float32's exact-integer range, so
  every sgemm partial sum is exact); otherwise the plane is the float64
  delta itself (``g_v = 1``).  The ``g_v x`` product and the running
  total are float64, inside the ``2**53`` bound;
* the accumulator dtype comes from :func:`select_accumulator`'s overflow
  bound on ``cells x max |entry|``; a geometry that cannot satisfy the
  bound raises :class:`KernelOverflowError` instead of wrapping.

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
from typing import Optional

import numpy as np

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


def select_quantum(
    max_value: float, cells: int, reference: float
) -> float:
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


class LUTKernel:
    """Integer gather + reduce over (codes, lut).

    Parameters
    ----------
    codes:
        (rows, cells) small-integer code per cell — the stored value,
        or the erased code where nothing was written.
    lut:
        (n_values, n_codes) integer score per (query value, code).

    ``scores(value_index)`` evaluates, for each query row of the
    (n, cells) ``value_index``, the per-row reduction
    ``sum_c lut[value_index[q, c], codes[r, c]]`` — exactly.  Two
    interchangeable strategies are provided (their equality is a
    regression test):

    * :meth:`scores` — the matmul formulation
      ``base[r] + sum_v g_v * (Q_v @ P_v.T)`` with ``Q_v`` the one-hot
      query mask for value ``v`` and the ``(rows, cells)`` plane
      ``P_v = small_v[codes]``, where ``lut[v] - lut[0]`` is
      ``g_v * small_v`` with ``g_v`` the row's gcd.  A plane is float32
      when ``cells x max |small_v| < 2**24`` (at 1 bit every plane is
      ``±1``: 4 B per cell) and stored row-major, its product oriented
      by shape (``P_v @ Q_v.T`` when ``rows >= n``, else
      ``Q_v @ P_v.T``); otherwise it is the float64 delta with
      ``g_v = 1``, stored transposed as ``(cells, rows)`` rows of the
      wide matrix the base shares, all scored by one product.  Every
      partial sum is an exact integer, so BLAS evaluates it exactly
      regardless of kernel, order or orientation — this is the numpy
      hot path.
    * :meth:`scores_gather` — the literal gather + blocked integer
      reduction in the accumulator dtype :func:`select_accumulator`
      picked.  The reference semantics, and the shape the kernel takes
      on gather-friendly accelerators.

    :meth:`append` adds rows in place.  ``g_v``, ``small_v``, the plane
    dtypes and the accumulator depend on the LUT and ``cells`` alone,
    never on the rows, so an appended kernel equals one compiled over
    all its codes, bit for bit.
    """

    def __init__(self, codes: np.ndarray, lut: np.ndarray):
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
        self._codes = self._validate_codes(codes).astype(np.int64, copy=False)
        max_entry = int(np.abs(self.lut).max()) if self.lut.size else 0
        #: Accumulator dtype certified by the overflow bound.
        self.accumulator = select_accumulator(self.cells, max_entry)
        # One (g, small) per value v >= 1.
        self._small = []
        for delta in self.lut[1:] - self.lut[0]:
            g = int(np.gcd.reduce(delta)) or 1
            peak = int(np.abs(delta).max(initial=0)) // g
            if self.cells * peak < 1 << EXACT_FLOAT32_BITS:
                small = (delta // g).astype(np.float32)
            else:  # float64 holds the delta itself: no rescale
                g, small = 1, delta.astype(np.float64)
            self._small.append((g, small))
        wide = sum(small.dtype == np.float64 for _, small in self._small)
        self._wide = np.empty((1 + wide * self.cells, self.rows))
        # A fresh float32 plane is its own C-ordered (rows, cells)
        # gather: one allocated ahead of the gather left heap holes that
        # cost an 8 x 1024 x 512 bank index 14 MiB of peak RSS.
        self._layout(
            small[codes]
            for _, small in self._small
            if small.dtype == np.float32
        )
        self._compile(codes, 0, narrow=False)

    def _layout(self, narrow) -> None:
        """Bind ``_base`` and every float64 plane to their rows of the
        wide matrix, and the float32 planes, in value order, to
        ``narrow``."""
        narrow = iter(narrow)
        wide = (
            self._wide[top : top + self.cells]
            for top in range(1, len(self._wide), self.cells)
        )
        self._base = self._wide[0]
        self._planes = [
            (g, next(wide if small.dtype == np.float64 else narrow))
            for g, small in self._small
        ]

    def _compile(
        self, codes: np.ndarray, start: int, narrow: bool = True
    ) -> None:
        """Write ``codes``' base entries and float64 plane columns from
        row ``start`` on, and their float32 plane rows if ``narrow``."""
        stop = start + len(codes)
        self._base[start:stop] = self.lut[0][codes].sum(axis=1)
        for (_, small), (_, plane) in zip(self._small, self._planes):
            if small.dtype == np.float64:
                plane[:, start:stop] = small[codes.T]
            elif narrow:
                plane[start:stop] = small[codes]

    @property
    def codes(self) -> np.ndarray:
        """(rows, cells) int64 compiled codes."""
        rows = self.rows  # before the buffer: an append moves it last
        return self._codes[:rows]

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
        depend on the LUT alone, so the result equals one kernel over
        all the codes, bit for bit.  ``rows`` moves last, so a reader
        that read it earlier still scores a consistent prefix."""
        codes = self._validate_codes(np.asarray(codes))
        start, stop = self.rows, self.rows + len(codes)
        if stop > len(self._base):
            size = headroom(stop)
            self._codes = regrown(self._codes[:start], size)
            self._wide = regrown(self._wide[:, :start], size, axis=1)
            self._layout(
                regrown(plane[:start], size)
                for _, plane in self._planes
                if plane.dtype == np.float32
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
            raise ValueError(
                f"value index outside [0, {self.n_values})"
            )
        return value_index

    def scores(self, value_index: np.ndarray) -> np.ndarray:
        """(n, rows) reduction scores, exactly integer-valued float64.

        One product of the ``[1 | one-hot(value_index)]`` operand with
        the wide matrix sums each row's base and float64 deltas: every
        partial sum is the base plus at most ``cells`` deltas, the terms
        :func:`accumulator_bound` certifies.  A float32 plane's product
        is exact below ``2**24`` in either orientation; scaling it by
        ``g`` and adding it to the float64 total stay exact below
        ``2**53`` (``np.multiply`` with ``dtype=float64``: a float32
        array times a Python int would stay float32).  Without float64
        planes the first scaled product is written into a C-ordered
        total and the base is added to it (a one-column product costs
        several times a broadcast)."""
        value_index = self._validate_index(value_index)
        n = value_index.shape[0]
        rows, wide, planes = self.rows, self._wide, self._planes
        out = None
        if len(wide) > 1:
            operand = np.zeros((n, len(wide)))
            operand[:, 0], top = 1.0, 1
            for v, (_, plane) in enumerate(planes, start=1):
                if plane.dtype == np.float64:
                    operand[:, top : top + self.cells] = value_index == v
                    top += self.cells
            out = operand @ wide[:, :rows]
        for v, (g, plane) in enumerate(planes, start=1):
            if plane.dtype != np.float32:
                continue
            mask = value_index == v
            if not mask.any():
                continue
            mask = mask.astype(np.float32)
            if rows >= n:
                product = (plane[:rows] @ mask.T).T
            else:
                product = mask @ plane[:rows].T
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
            out[start:stop] = gathered.sum(
                axis=2, dtype=self.accumulator
            )
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
