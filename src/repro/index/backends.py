"""Pluggable search backends for :class:`repro.index.FerexIndex`.

A backend is a *position-space* nearest-neighbor engine: the index owns
ids and the canonical vector store; the backend answers ``search`` with
global insertion positions, and is told about every mutation through the
same three verbs the index exposes (``add`` / ``deactivate`` /
``rebuild``).  Every backend carries a :class:`repro.core.BankConfig` —
the (metric, bits) pair it is currently voltaged for.  Three
implementations ship here; the cluster-routed backend and tiered search
(a one-cluster routed index) live in :mod:`repro.index.routing`:

* :class:`FerexBackend` — sharded banks of :class:`repro.core.FeReX`
  engines.  Vectors fill a bank row by row through the crossbar's
  incremental write path (:meth:`FeReXArray.program_rows`); when a bank
  reaches ``bank_rows`` capacity the next one opens.  Searches ride the
  batched ``search_k_batch`` fast path per bank, with unoccupied
  capacity and tombstoned rows masked out of the LTA competition, and
  bank candidates merge through one vectorised lexsort on
  (analog distance, global position) — exactly how a multi-bank FeFET
  CAM deployment composes its LTA outputs.  Every bank is voltaged at
  the backend's config; a whole-index re-voltage builds a new backend
  (:meth:`repro.index.FerexIndex.reconfigure`).
* :class:`ExactBackend` — the exact software reference
  (:meth:`DistanceMetric.pairwise`, the one exact software scorer), the
  baseline hardware winners are validated against.
* :class:`GPUBackend` — the paper's GPU baseline: exact winners (it
  *is* the exact backend) plus a roofline latency/energy price per
  search (:class:`repro.eval.gpu_model.GPUCostModel`).

Every search is the same nominate -> merge shape: banks (or clusters,
in :mod:`repro.index.routing`) nominate candidate positions with a
score, and one (score, global position) lexsort (:func:`merge_top_k`)
keeps the best ``k``.  Tiered search — the routed backend's
``inner="tiered"``, of which ``backend="tiered"`` is the one-cluster
case — puts :func:`refine` between the two: the one place nominated
positions are rescored exactly against a full-precision code store
(:func:`code_store`).

Memory note
-----------
Who holds the stored codes, per element, on ideal devices:

* the index's canonical ``_vectors`` — int64, 8 B.  It is the persisted
  and shared-memory wire format (workers attach it zero-copy), so its
  width is a format decision, not a footprint one.
* each bank's ``vectors`` mirror and its engine's ``stored`` mirror —
  :func:`repro.core.code_dtype`, 1 B up to 3-bit codes.  They keep the
  backend protocol free of callbacks into the index: a bank that grows
  re-programs its written rows from its own mirror.
* the crossbar's ``levels`` — 1 B per FeFET, K per element; everything
  else the device model needs is derived from it on read (see
  :class:`repro.arch.crossbar.FeReXArray`).
* the compiled kernel's ``codes`` (int64, 8 B) and its weight planes
  (one per query value past the first, float32 or float64; one 4 B
  plane at 1 bit) — the largest share, but only over a bank's
  programmed row prefix: the erased capacity a doubling allocation
  leaves past the last written row is scored as one integer per query,
  not stored.  They are the search hot path's operands; narrowing them
  is a kernel change, not a state one.

A seeded bank additionally holds its variation sample (two float64 per
FeFET), once: every allocation slices it and the array adopts the
slice uncopied.

A routed or tiered index (:mod:`repro.index.routing`) holds no bank
state at all: a cluster is its codes — rows of the routed backend's own
:func:`code_store` — plus their compiled kernel, and one engine per
backend supplies the value LUT.  Only where no exact kernel exists
does a cluster program transient banks, dropped on its next write.

The index's canonical arrays, the mirrors above and the routed
backend's store and position maps all grow through one
:class:`RowStore`: a bulk load fits exactly, and once appended to a
buffer keeps at most an eighth of spare rows past the written prefix —
the price of an add costing its own rows, not a copy of everything
stored.

Variation discipline
--------------------
Under a seed, bank ``b`` samples its full-capacity variation once
(``seed + b``, the same per-bank scheme the KNN classifier used) and
every allocation slices a prefix of that sample.  Row ``r`` of a bank
therefore carries the same device instance no matter how the bank grew,
which is what makes incremental ``add`` bit-identical to one-shot
programming and ``save``/``load`` round trips exact.  A whole-index
reconfigure builds a fresh backend at the target config, which
re-samples at the new cell geometry with the *same* per-bank seeds, so
it keeps the bit-identity guarantee too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from ..circuits.lta import stable_top_k
from ..core.blas import one_thread
from ..core.config import BankConfig, code_dtype
from ..core.engine import FeReX
from ..core.kernel import headroom, regrown
from ..devices.variation import ArrayVariation, VariationSampler


class RowStore:
    """Aligned append-only row arrays: every write costs its own rows.

    ``columns`` holds each array's written prefix, a view of a buffer
    that an append outgrowing it regrows to
    :func:`repro.core.kernel.headroom` rows — except the first write
    into an empty store, which fits exactly, as a fresh kernel compile
    does: a bulk-loaded, read-mostly index keeps no spare rows.  Rows
    are only ever written past the prefix, so a prefix handed out
    earlier — an :meth:`FerexIndex.export_state` array, a fingerprinted
    or published state — keeps its rows under later appends.  The
    initial arrays are adopted uncopied (a read-only shared-memory view
    included: the first append regrows into a private buffer).
    In-place writes through a prefix (a tombstone flipping ``alive``)
    reach the buffer.
    """

    def __init__(self, *columns: np.ndarray):
        self.columns = self._buffers = columns

    def append(self, *rows: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Write one block of new rows per column past the prefix;
        returns the grown prefixes."""
        start = len(self.columns[0])
        stop = start + len(rows[0])
        if stop > len(self._buffers[0]):
            size = headroom(stop) if start else stop
            self._buffers = tuple(
                regrown(prefix, size) for prefix in self.columns
            )
        for buffer, new in zip(self._buffers, rows):
            buffer[start:stop] = new
        self.columns = tuple(buffer[:stop] for buffer in self._buffers)
        return self.columns


@runtime_checkable
class SearchBackend(Protocol):
    """What :class:`repro.index.FerexIndex` requires of a backend.

    Positions are global insertion-order indices into the index's vector
    store (tombstoned rows keep their position until ``rebuild``).
    """

    #: Registry key used by persistence (``save`` stores it, ``load``
    #: reconstructs the backend from it).
    name: str

    #: The (metric, bits) configuration the backend is voltaged for.
    config: BankConfig

    def add(self, vectors: np.ndarray) -> None:
        """Append (n, dims) vectors at the next free positions."""
        ...

    def deactivate(self, positions: np.ndarray) -> None:
        """Tombstone the given positions: they stay physically present
        but never compete in a search again."""
        ...

    def rebuild(self, vectors: np.ndarray) -> None:
        """Drop everything and re-add ``vectors`` from position 0 (the
        ``compact`` re-program)."""
        ...

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(n, k) global positions and distances, nearest first.  ``k``
        never exceeds the number of live positions."""
        ...


class ExactBackend:
    """Exact software search over the live vector set.

    One :meth:`DistanceMetric.pairwise` call per batch over a
    :func:`code_store` (so searches never re-cast it); candidates order
    by (distance, position) via :func:`stable_top_k`, the same tie-break
    the multi-bank analog merge uses.
    """

    name = "exact"

    def __init__(self, config: BankConfig, dims: int):
        self.config = config
        self.metric = config.resolved
        self.bits = config.bits
        self.dims = dims
        self.rebuild(np.empty((0, dims), dtype=int))

    def add(self, vectors: np.ndarray) -> None:
        self._vectors, self._alive = self._rows.append(
            vectors, np.ones(len(vectors), dtype=bool)
        )

    def deactivate(self, positions: np.ndarray) -> None:
        self._alive[positions] = False

    def rebuild(self, vectors: np.ndarray) -> None:
        self._rows = RowStore(
            np.array(vectors, dtype=code_dtype(self.bits)),
            np.ones(len(vectors), dtype=bool),
        )
        self._vectors, self._alive = self._rows.columns

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        live = np.flatnonzero(self._alive)
        distances = self.metric.pairwise(
            queries, self._vectors[live], self.bits
        ).astype(float)
        order = stable_top_k(distances, k)
        return (
            live[order],
            np.take_along_axis(distances, order, axis=1),
        )


#: Global-position sentinel for unfilled candidate slots: orders after
#: every real position in the lexsort merge.
PAD_POSITION = np.int64(2**62)


def merge_top_k(
    positions: np.ndarray, distances: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` best of each row's (n, C) candidates in (distance,
    global position) order — lexsort's last key is primary, and the
    position tie-break is the exact backend's stable ordering."""
    order = np.lexsort((positions, distances))[:, :k]
    return (
        np.take_along_axis(positions, order, axis=1),
        np.take_along_axis(distances, order, axis=1),
    )


def code_store(dims: int, bits: int) -> np.ndarray:
    """An empty (0, dims) code store at :func:`repro.core.code_dtype`:
    the bank mirrors and the full-precision store :func:`refine`
    gathers from.  The narrow gather + narrow metric arithmetic is what
    the rescore hot path spends most of its time on, and a code never
    wraps."""
    return np.empty((0, dims), dtype=code_dtype(bits))


def refine(
    config: BankConfig,
    store: np.ndarray,
    queries: np.ndarray,
    candidates: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact full-precision rescore of nominated positions: the top
    ``k`` of each query's (n, C) ``candidates`` by (exact distance,
    position), with the distances as floats.

    ``store`` is the :func:`code_store` the positions index;
    :data:`PAD_POSITION` slots rescore to ``inf``.
    """
    padded = candidates == PAD_POSITION
    # validate=False: the index validated the queries and the
    # candidates come from its own add-validated store — the range
    # scans would be pure overhead on the rescore hot path.
    rescored = config.resolved.rowwise(
        np.asarray(queries, dtype=store.dtype),
        store[np.where(padded, 0, candidates)],
        config.bits,
        validate=False,
    ).astype(float)
    rescored[padded] = np.inf
    return merge_top_k(candidates, rescored, k)


class GPUBackend(ExactBackend):
    """The paper's GPU baseline (Fig. 8): the exact backend's winners
    and distances, plus a roofline price per search.

    After every search the equivalent batched GPU distance kernel is
    priced on the configured :class:`repro.eval.gpu_model.GPUSpec` and
    stored as :attr:`last_estimate`, so serving experiments read
    paper-style latency/energy baselines off the same query stream.
    """

    name = "gpu"

    def __init__(
        self,
        config: BankConfig,
        dims: int,
        spec=None,
        batch_size: int = 256,
    ):
        super().__init__(config, dims)
        # Imported lazily: repro.eval.__init__ pulls in the application
        # layer, which itself imports this module at class-definition
        # time — a function-level import breaks the cycle.
        from ..eval.gpu_model import GPUCostModel, GPUSpec

        self.cost_model = GPUCostModel(spec or GPUSpec())
        self.batch_size = batch_size
        #: Roofline estimate of the most recent search (None before the
        #: first one).
        self.last_estimate = None

    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        positions, distances = super().search(queries, k)
        # XOR + popcount for Hamming, subtract/abs-or-square/accumulate
        # for the L1/L2 family.
        flops = 2.0 if self.metric.name == "hamming" else 3.0
        self.last_estimate = self.cost_model.distance_search(
            n_queries=max(1, len(queries)),
            n_stored=max(1, int(self._alive.sum())),
            dims=self.dims,
            flops_per_element=flops,
            batch_size=self.batch_size,
        )
        return positions, distances


@dataclass
class _Bank:
    """One physical shard: a FeReX engine plus its occupancy state."""

    engine: FeReX
    #: The (metric, bits) this bank is voltaged for: always the
    #: backend's config.
    config: BankConfig
    #: Maximum rows this bank ever holds (the shard height).
    capacity: int
    #: Global position of this bank's row 0.
    start: int
    #: Vectors physically written, in row order (tombstones included),
    #: as a :func:`code_store`; a re-allocation re-programs from it.
    vectors: np.ndarray
    #: Per written row: does it still compete?
    alive: np.ndarray = field(default_factory=lambda: np.empty(0, bool))
    #: Full-capacity variation sample the allocations slice (None =
    #: ideal devices).
    variation: Optional[ArrayVariation] = None

    def __post_init__(self) -> None:
        self._rows = RowStore(self.vectors, self.alive)

    def append(self, vectors: np.ndarray) -> None:
        """Mirror newly written ``vectors``, every row live."""
        self.vectors, self.alive = self._rows.append(
            vectors, np.ones(len(vectors), dtype=bool)
        )

    @property
    def written(self) -> int:
        return len(self.vectors)

    @property
    def space(self) -> int:
        return self.capacity - self.written

    def active_rows(self) -> np.ndarray:
        """(array rows,) LTA competition mask: written, live rows only."""
        mask = np.zeros(self.engine.array.rows, dtype=bool)
        mask[: self.written] = self.alive
        return mask


def _slice_variation(
    variation: Optional[ArrayVariation], rows: int
) -> Optional[ArrayVariation]:
    """Prefix-slice a full-capacity variation sample to an allocation."""
    if variation is None:
        return None
    return ArrayVariation(
        vth_offset=variation.vth_offset[:rows],
        r_factor=variation.r_factor[:rows],
        lta_offset=variation.lta_offset[:rows],
        row_gain=variation.row_gain[:rows],
    )


class FerexBackend:
    """Sharded multi-bank FeReX search backend.

    Parameters mirror :class:`repro.core.FeReX`: ``config`` is the
    (metric, bits) new banks open at; ``bank_rows`` is the shard height
    (the physical array capacity of each bank).  ``seed`` seeds device
    variation per bank (``seed + bank_index``); ``None`` keeps ideal
    devices.
    """

    name = "ferex"

    def __init__(
        self,
        config: BankConfig,
        dims: int,
        bank_rows: int = 1024,
        encoder: str = "auto",
        seed: Optional[int] = None,
    ):
        if bank_rows < 1:
            raise ValueError("bank_rows must be >= 1")
        self.config = config
        self.dims = dims
        self.bank_rows = bank_rows
        self.encoder = encoder
        self.seed = seed
        self._banks: List[_Bank] = []

    # ------------------------------------------------------------------
    @property
    def metric(self):
        """The backend-level metric (new banks open at this)."""
        return self.config.metric

    @property
    def bits(self) -> int:
        """The backend-level (storage alphabet) bit width."""
        return self.config.bits

    @property
    def n_banks(self) -> int:
        return len(self._banks)

    @property
    def engines(self) -> List[FeReX]:
        """The per-bank engines (read-only introspection)."""
        return [bank.engine for bank in self._banks]

    @property
    def bank_configs(self) -> Tuple[BankConfig, ...]:
        """Each bank's (metric, bits) voltage configuration: the
        backend's config, once per bank."""
        return tuple(bank.config for bank in self._banks)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _open_bank(self) -> _Bank:
        """Open the next bank: its engine and full-capacity variation
        sample (seed ``seed + index``; the sample geometry follows the
        config's cell size)."""
        index = len(self._banks)
        engine = FeReX(
            dims=self.dims, encoder=self.encoder, config=self.config
        )
        variation = None
        if self.seed is not None:
            sampler = VariationSampler(
                engine.tech.variation, seed=self.seed + index
            )
            variation = sampler.sample_array(
                self.bank_rows, engine.physical_cols
            )
        bank = _Bank(
            engine=engine,
            config=self.config,
            capacity=self.bank_rows,
            start=index * self.bank_rows,
            vectors=code_store(self.dims, self.config.bits),
            alive=np.empty(0, dtype=bool),
            variation=variation,
        )
        self._banks.append(bank)
        return bank

    def _write(self, bank: _Bank, vectors: np.ndarray) -> None:
        """Admit ``vectors`` into a bank, growing its array if needed.

        While the allocated array has spare rows the new vectors go in
        through the crossbar's row-level incremental program; when it
        does not, the array is re-allocated (geometric growth, capped at
        the bank capacity) with the *same* sliced variation sample and
        every written row re-programmed — results are identical either
        way because each row's device instance is fixed by its position.
        """
        old = bank.written
        total = old + len(vectors)
        array = bank.engine.array
        # The engine validates the codes as given; only then does the
        # narrow mirror take them, so an out-of-range code raises
        # instead of wrapping.
        if array is None or array.rows < total:
            alloc = min(bank.capacity, max(total, 2 * old))
            bank.engine.allocate(
                alloc, variation=_slice_variation(bank.variation, alloc)
            )
            start, written = 0, np.concatenate([bank.vectors, vectors])
        else:
            start, written = old, vectors
        bank.engine.write_rows(start, written)
        bank.append(vectors)

    def add(self, vectors: np.ndarray) -> None:
        i = 0
        while i < len(vectors):
            bank = self._banks[-1] if self._banks else None
            if bank is None or bank.space == 0:
                bank = self._open_bank()
            take = min(bank.space, len(vectors) - i)
            self._write(bank, vectors[i : i + take])
            i += take

    def deactivate(self, positions: np.ndarray) -> None:
        for position in np.asarray(positions, dtype=int):
            bank = self._banks[int(position) // self.bank_rows]
            bank.alive[int(position) - bank.start] = False

    def rebuild(self, vectors: np.ndarray) -> None:
        self._banks = []
        if len(vectors):
            self.add(np.asarray(vectors, dtype=int))

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    @one_thread()
    def search(
        self, queries: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-bank batched ``search_k`` + vectorised lexsort merge.

        Each bank contributes its ``min(k, live rows)`` nearest rows per
        query from one :meth:`FeReX.search_k_batch` call (unwritten and
        tombstoned rows masked out of the LTA); candidates merge on
        (analog distance, global position) through
        :func:`merge_top_k`.  The whole search runs on one BLAS thread:
        a bank's products are small, and a second OpenBLAS thread only
        spins between them.
        """
        bank_idx: List[np.ndarray] = []
        bank_dist: List[np.ndarray] = []
        for bank in self._banks:
            active = bank.active_rows()
            n_live = int(active.sum())
            if n_live == 0:
                continue
            result = bank.engine.search_k_batch(
                queries, min(k, n_live), active_rows=active
            )
            bank_idx.append(bank.start + result.winners)
            bank_dist.append(result.winner_units)
        return merge_top_k(
            np.concatenate(bank_idx, axis=1),
            np.concatenate(bank_dist, axis=1),
            k,
        )

    def shortlist(
        self, queries: np.ndarray, c: int, with_units: bool = False
    ):
        """(n, c) nearest global positions by *row-current readout*:
        one array evaluation per bank, candidates ordered by (unit
        current, global position).

        The coarse-tier fast path: where :meth:`search` runs ``c``
        winner-masking LTA rounds per query (each round a full
        comparator decision — the faithful model of the array emitting
        winners one at a time), a shortlist only needs the row distance
        readings once; under ideal devices the (current, position)
        ordering is exactly the sequence those ``c`` LTA rounds would
        emit, at the cost of a single evaluation.  Like :meth:`search`,
        a ``c`` above the live row count returns every live row: a
        masked (tombstoned or never-written) row is never nominated.

        ``with_units=True`` additionally returns the (n, c) unit
        currents backing the ordering — callers merging shortlists
        across shards (the routed backend) need them.
        """
        units: List[np.ndarray] = []
        positions: List[np.ndarray] = []
        n_live = 0
        for bank in self._banks:
            active = bank.active_rows()
            live = int(active.sum())
            if live == 0:
                continue
            n_live += live
            readout = np.array(bank.engine.readout_batch(queries), dtype=float)
            readout[:, ~active] = np.inf
            units.append(readout)
            positions.append(
                bank.start + np.arange(bank.engine.array.rows)
            )
        all_units = np.concatenate(units, axis=1)
        all_positions = np.concatenate(positions)
        # Columns are globally position-ascending (banks in order, rows
        # in order), so the LTA's (value, column)-stable selection
        # tie-breaks on position — matching the lexsort merge and the
        # exact backend.
        picks = stable_top_k(all_units, min(c, n_live))
        if with_units:
            return (
                all_positions[picks],
                np.take_along_axis(all_units, picks, axis=1),
            )
        return all_positions[picks]


#: Backend registry used by the index facade and by persistence.
BACKENDS = {
    ExactBackend.name: ExactBackend,
    GPUBackend.name: GPUBackend,
    FerexBackend.name: FerexBackend,
}
