"""FeReX — the reconfigurable in-memory nearest-neighbor search engine.

This is the library's main entry point, tying together the whole stack:

1. **configure** — derive the voltage encoding for the requested distance
   function, either through the paper's CSP pipeline (Alg. 1 + Fig. 5
   post-processing) or the closed-form constructive encoder for wide
   alphabets.  The solve runs once per configuration per process, and
   so does everything derived from it at one row width and technology:
   the specialised tech, the store / search tables, the bias alphabet
   and the kernel's value table, held by one read-only
   :class:`repro.core.cell_config.CellConfiguration`.  Every later
   engine of that configuration (each index bank, replica or
   reconfigure) shares it and holds only its array and rows;
2. **program** — map stored vectors onto the 1FeFET1R crossbar (each
   element fans out to the cell's K FeFETs);
3. **search** — drive the query's search/drain voltages, aggregate row
   currents, and let the loser-take-all pick the nearest stored vector.

Reconfiguring the same physical array for another metric is a matter of
constructing a new engine over the same technology — no circuit change,
which is the paper's headline claim (Table I: "HD / L1 / L2").

Batch API
---------
The hot path for the paper's workloads (Fig. 7 Monte Carlo, Fig. 8 HDC
inference) is thousands of queries against one programmed array.  Next
to the one-query methods the engine therefore exposes:

* :meth:`FeReX.search_k_batch` — (n, dims) queries in one call through
  the array's score -> select pipeline, returning a
  :class:`repro.arch.crossbar.BatchSearchKResult` with (n, k) winners.
  Winners and ``row_units`` are bit-identical to looping
  :meth:`FeReX.search_k` (iterative LTA winner masking) — just orders
  of magnitude faster to simulate (see
  ``benchmarks/bench_batch_throughput.py``).
* :meth:`FeReX.search_batch` — its ``k = 1`` view, returning a
  :class:`repro.arch.crossbar.BatchSearchResult`.
* :meth:`FeReX.readout_batch` — the scorer alone: (n, rows) distance
  readings with no winner selection.

Example
-------
>>> import numpy as np
>>> engine = FeReX(metric="hamming", bits=2, dims=4, seed=1)
>>> stored = np.array([[0, 1, 2, 3], [3, 2, 1, 0], [0, 0, 0, 0]])
>>> engine.program(stored)
>>> result = engine.search([0, 1, 2, 2])
>>> result.winner
0
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import kernel
from ..arch.crossbar import FeReXArray, SearchResult
from ..devices.tech import TechConfig, DEFAULT_TECH
from ..devices.variation import ArrayVariation, VariationSampler
from .cell_config import CellConfiguration
from .config import BankConfig, code_dtype
from .constructive import constructive_cell, has_constructive
from .dm import DistanceMatrix
from .distance import DistanceMetric
from .encoding import CellEncoding, best_encoding, encode_cell
from .feasibility import find_min_cell
from .kernel import KernelOverflowError, QuantizedKernel


class ConfigurationError(RuntimeError):
    """Raised when no feasible encoding exists for the request."""


#: Solved cells, one per configuration per process: keyed by exactly
#: what the solve reads (resolved encoder mode, metric name, bits, DM
#: values, ``max_k``, resolved current range).  A :class:`CellEncoding`
#: is frozen, so every engine of a configuration shares one.
_SOLVED_CELLS: Dict[tuple, CellEncoding] = {}

#: Cell configurations, one per (solved encoding, dims, unspecialised
#: tech) per process.  Keyed by the encoding's ``id``: the entry holds
#: the encoding, so the id names that object while the entry lives, and
#: a fresh solve of an equal cell gets a fresh configuration.
_CONFIGURATIONS: Dict[tuple, CellConfiguration] = {}


class NotProgrammedError(RuntimeError):
    """Raised when a search is attempted before any vectors are stored.

    Shared by the engine (``search`` before ``program``/``allocate``)
    and the :class:`repro.index.FerexIndex` facade (``search`` on an
    empty index), so callers catch one exception type across the stack.
    """


#: The one pre-program error message, shared by every search entry point.
_NOT_PROGRAMMED = "program() must be called before search()"


@dataclass
class EngineSearchResult:
    """Search outcome at the application level."""

    #: Index of the stored vector the LTA selected.
    winner: int
    #: Hardware distance reading per stored vector (unit currents,
    #: includes analog noise/leakage).
    hardware_distances: np.ndarray
    #: Raw array-level result (currents, timing, energy).
    array_result: SearchResult

    @property
    def latency(self) -> float:
        """Search latency, seconds."""
        return self.array_result.timing.total

    @property
    def energy(self) -> float:
        """Search energy, joules."""
        return self.array_result.energy.total


class FeReX:
    """A FeReX engine configured for one distance function.

    Parameters
    ----------
    metric:
        Registered metric name ("hamming", "manhattan", "euclidean") or a
        :class:`DistanceMetric` instance.
    bits:
        Bit width of each vector element.
    dims:
        Number of vector elements (cells per row).
    encoder:
        "csp" runs Algorithm 1 and picks the cheapest feasible cell;
        "constructive" uses the closed-form thermometer cells;
        "auto" (default) runs the CSP when the DM is small (alphabet <= 4
        values and entries <= 4 units — covers 1-2 bit Hamming/Manhattan
        and 1-bit Euclidean) and falls back to the constructive encoding
        otherwise.  Either solve runs once per configuration per
        process; later engines of the configuration share its encoding.
    max_k:
        Cell-size cap for the CSP search.
    current_range:
        Allowed per-FeFET ON-current multiples for the CSP search
        (default: 1 .. the technology's drain-selector maximum).  Deeper
        ranges trade drain rails for smaller cells — see the Vds-levels
        ablation bench.
    tech:
        Technology configuration; the shared cell configuration
        specialises the FeFET ladder and drain-selector range to what
        the chosen encoding needs (:attr:`tech` is that copy).
    variation / seed:
        Optional explicit :class:`ArrayVariation` or a seed from which the
        engine samples variation at ``program`` time.  Default: ideal
        devices.
    config:
        A ready :class:`BankConfig` carrying (metric, bits) as one value
        object — the first-class form every layer above (index banks,
        backends, persistence) threads through.  Mutually redundant with
        ``metric``/``bits``: when given it wins, and the engine's
        :attr:`config` always reports the effective pair either way.
    """

    def __init__(
        self,
        metric: "str | DistanceMetric" = "hamming",
        bits: int = 2,
        dims: int = 16,
        encoder: str = "auto",
        max_k: int = 8,
        current_range: Optional[Sequence[int]] = None,
        tech: Optional[TechConfig] = None,
        variation: Optional[ArrayVariation] = None,
        seed: Optional[int] = None,
        config: Optional[BankConfig] = None,
    ):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        #: The engine's re-voltageable configuration (metric + bits).
        self.config = (
            config if config is not None else BankConfig(metric, bits)
        )
        self.metric = self.config.resolved
        self.bits = self.config.bits
        self.dims = dims
        # The solve reads this DM; the engine then keeps the
        # configuration's equal one.
        self.dm = DistanceMatrix.from_metric(self.metric, self.bits)
        #: The shared :class:`CellConfiguration`; the attributes below
        #: are references into it.
        self.cell = cell = self._configure(
            encoder, max_k, current_range, tech or DEFAULT_TECH
        )
        self.encoding, self.tech, self.dm = cell.encoding, cell.tech, cell.dm
        self._store_lut = cell.store_lut
        self._search_volt_lut = cell.search_volt_lut
        self._search_mult_lut = cell.search_mult_lut
        self._variation = variation
        self._seed = seed
        self.array: Optional[FeReXArray] = None
        self.stored: Optional[np.ndarray] = None
        #: Per-row occupancy; rows allocated but not yet written hold a
        #: placeholder in ``stored`` and must not be read as data.
        self._row_written: Optional[np.ndarray] = None
        #: The array's ``write_generation`` after this engine's last
        #: write: ``stored`` describes the array only while they agree.
        self._written_generation = -1

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def _configure(
        self,
        encoder: str,
        max_k: int,
        current_range: Optional[Sequence[int]],
        tech: TechConfig,
    ) -> CellConfiguration:
        if encoder not in ("auto", "csp", "constructive"):
            raise ValueError(f"unknown encoder mode {encoder!r}")
        if encoder == "auto":
            small_dm = self.dm.n_stored <= 4 and self.dm.max_value <= 4
            if small_dm or not has_constructive(self.metric.name):
                encoder = "csp"
            else:
                encoder = "constructive"
        if current_range is None:
            current_range = range(1, DEFAULT_TECH.cell.max_vds_multiple + 1)
        current_range = tuple(current_range)
        values = self.dm.values
        key = (
            encoder,
            self.metric.name,
            self.bits,
            values.shape,
            values.tobytes(),
            max_k,
            current_range,
        )
        encoding = _SOLVED_CELLS.get(key)
        if encoding is None:
            # A failed solve raises here, so it is never stored; racing
            # builders all keep the first stored solve.
            encoding = _SOLVED_CELLS.setdefault(
                key, self._solve(encoder, max_k, current_range)
            )
        key = (id(encoding), self.dims, tech)
        cell = _CONFIGURATIONS.get(key)
        if cell is None:
            built = CellConfiguration.build(encoding, self.dm, self.dims, tech)
            cell = _CONFIGURATIONS.setdefault(key, built)
        return cell

    def _solve(
        self, encoder: str, max_k: int, current_range: Tuple[int, ...]
    ) -> CellEncoding:
        if encoder == "constructive":
            if not has_constructive(self.metric.name):
                raise ConfigurationError(
                    f"no constructive encoding for {self.metric.name!r}; "
                    "use encoder='csp'"
                )
            solution = constructive_cell(self.metric.name, self.bits)
            return encode_cell(solution, self.metric.name, self.bits)

        result = find_min_cell(
            self.dm, current_range=current_range, max_k=max_k
        )
        if not result.feasible or result.solution is None:
            raise ConfigurationError(
                f"no feasible cell with K <= {max_k} for "
                f"{self.metric.name}/{self.bits}-bit"
            )
        encoding = best_encoding(
            self.dm,
            result.k,
            result.current_range,
            metric_name=self.metric.name,
            bits=self.bits,
        )
        if encoding is None:
            raise ConfigurationError("feasible region vanished on re-walk")
        return encoding

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """FeFETs per cell."""
        return self.encoding.k

    @property
    def physical_cols(self) -> int:
        """FeFET columns the array needs for ``dims`` elements."""
        return self.dims * self.k

    @property
    def n_values(self) -> int:
        """Alphabet size ``2**bits``."""
        return 1 << self.bits

    # ------------------------------------------------------------------
    # Programming
    # ------------------------------------------------------------------
    def _validate_vectors(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=int)
        if vectors.ndim != 2 or vectors.shape[1] != self.dims:
            raise ValueError(
                f"expected (n, {self.dims}) vectors, got {vectors.shape}"
            )
        if vectors.size and (
            vectors.min() < 0 or vectors.max() >= self.n_values
        ):
            raise ValueError(
                f"vector values outside [0, {self.n_values})"
            )
        return vectors

    def _build_array(
        self, rows: int, variation: Optional[ArrayVariation]
    ) -> FeReXArray:
        if variation is None:
            variation = self._variation
            if variation is None and self._seed is not None:
                sampler = VariationSampler(
                    self.tech.variation, seed=self._seed
                )
                variation = sampler.sample_array(rows, self.physical_cols)
        array = FeReXArray(
            rows=rows,
            physical_cols=self.physical_cols,
            tech=self.tech,
            variation=variation,
            cell_fanout=self.encoding.k,
        )
        # Register the engine's bias alphabet so every search variant
        # (generic or values) can route through the quantized integer
        # kernel when the array is eligible, and the compile of that
        # kernel from the values this engine writes.
        array.set_search_alphabet(self.cell.sl_alphabet, self.cell.dl_alphabet)
        array.set_kernel_compiler(self._compile_kernel)
        return array

    def program(self, vectors: np.ndarray) -> None:
        """Write the stored vectors into a freshly built crossbar.

        ``vectors`` is (n_vectors, dims) with integer entries in
        ``[0, 2**bits)``.
        """
        vectors = self._validate_vectors(vectors)
        if vectors.shape[0] < 1:
            raise ValueError("need at least one stored vector")
        self.allocate(vectors.shape[0])
        self.write_rows(0, vectors)

    def allocate(
        self,
        capacity: int,
        variation: Optional[ArrayVariation] = None,
    ) -> None:
        """Build an erased array of ``capacity`` rows for incremental
        writes.

        Unlike :meth:`program`, no vectors are stored yet: rows are
        filled later through :meth:`write_rows`, which is how an index
        bank admits vectors as they arrive.  Unwritten rows sit in the
        erased (highest-threshold) state and must be masked out of the
        LTA competition via ``active_rows`` when searching — an erased
        row leaks less than any programmed row and would otherwise win.

        ``variation`` overrides the engine's own variation source for
        this allocation (the index slices one full-capacity sample so
        results are invariant to the allocation history).
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.array = self._build_array(capacity, variation)
        self.stored = np.zeros(
            (capacity, self.dims), dtype=code_dtype(self.bits)
        )
        self._row_written = np.zeros(capacity, dtype=bool)
        self._written_generation = self.array.write_generation

    def write_rows(self, start: int, vectors: np.ndarray) -> None:
        """Program ``vectors`` into rows ``start ..`` of the allocated
        array without touching other rows (the crossbar's row-level
        incremental write path, :meth:`FeReXArray.program_rows`)."""
        if self.array is None:
            raise NotProgrammedError(
                "allocate() or program() must be called before write_rows()"
            )
        vectors = self._validate_vectors(vectors)
        n = vectors.shape[0]
        if n < 1:
            raise ValueError("need at least one vector to write")
        if not 0 <= start or start + n > self.array.rows:
            raise ValueError(
                f"row span [{start}, {start + n}) outside "
                f"[0, {self.array.rows})"
            )
        levels = self._store_lut[vectors].reshape(n, self.physical_cols)
        self.array.program_rows(start, levels)
        self.stored[start : start + n] = vectors
        self._row_written[start : start + n] = True
        self._written_generation = self.array.write_generation

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def quantized_kernel(self):
        """The array's compiled integer search kernel
        (:class:`repro.core.kernel.QuantizedKernel`), or ``None`` before
        programming / when the array is ineligible (sampled variation,
        ``kernel_enabled = False``, a raw array write since this
        engine's last write, geometry beyond the exact-integer bound).
        Introspection only — every ``search*`` variant routes through it
        automatically when it is available."""
        if self.array is None:
            return None
        return self.array.quantized_kernel()

    def value_lut(self) -> Tuple[np.ndarray, float]:
        """``(lut, quantum)``: the integer score of every (query value,
        stored value) cell pair, at the quantum every ideal array of
        this engine compiles (the store alphabet and the erased cell fix
        it, whatever a bank holds).  A :class:`repro.core.kernel.LUTKernel`
        over stored value codes gathers from it and scores exactly what
        the array's kernel scores.  Raises
        :class:`repro.core.kernel.KernelOverflowError` beyond the exact
        integer bound.  Read-only, shared by every engine of the
        configuration (:attr:`CellConfiguration.value_table`)."""
        table = self.cell.value_table
        if table is None:
            raise KernelOverflowError(
                f"no exact kernel for {self.metric.name}/{self.bits}-bit "
                f"at {self.dims} cells"
            )
        return table[0][:, :-1], table[1]

    def _compile_kernel(self) -> Optional[QuantizedKernel]:
        """The array's kernel, from the values this engine wrote: a
        :class:`repro.core.kernel.LUTKernel` over the stored codes of the
        rows up to the last written one (the erased code where a row is
        unwritten) and the full value LUT.  ``None`` when the array was
        written past this engine (``stored`` is stale) or beyond the
        exact-integer bound.  The array calls it behind its eligibility
        gate (:meth:`FeReXArray.set_kernel_compiler`)."""
        table = self.cell.value_table
        stale = self.array.write_generation != self._written_generation
        if table is None or stale:
            return None
        lut, quantum = table
        written = self._row_written
        last = np.flatnonzero(written)
        prefix = int(last[-1]) + 1 if len(last) else 0
        erased = lut.shape[1] - 1
        codes = np.where(
            written[:prefix, None], self.stored[:prefix], np.int64(erased)
        )
        # Looked up at call time, so a substituted class is used.
        compiled = kernel.LUTKernel(codes, lut)
        return QuantizedKernel(compiled, quantum, self.array.rows, erased)

    def _query_bias(self, query: Sequence[int]):
        query = np.asarray(query, dtype=int)
        if query.shape != (self.dims,):
            raise ValueError(
                f"expected a {self.dims}-element query, got {query.shape}"
            )
        if query.min() < 0 or query.max() >= self.n_values:
            raise ValueError(f"query values outside [0, {self.n_values})")
        sl = self._search_volt_lut[query].reshape(self.physical_cols)
        dl = self._search_mult_lut[query].reshape(self.physical_cols)
        return sl, dl

    def search(self, query: Sequence[int]) -> EngineSearchResult:
        """Nearest-neighbor search for one query vector."""
        if self.array is None:
            raise NotProgrammedError(_NOT_PROGRAMMED)
        sl, dl = self._query_bias(query)
        result = self.array.search(sl, dl)
        return EngineSearchResult(
            winner=result.winner,
            hardware_distances=result.row_units,
            array_result=result,
        )

    def _batch_bias(self, queries: np.ndarray) -> tuple:
        """``(sl alphabet, dl alphabet, value index)`` — an (n, dims)
        query batch in the array's bias-alphabet form.  The shape is
        checked here; the values once, by the scorer the array picks
        (a value outside the ``n_values`` alphabet raises there)."""
        if self.array is None:
            raise NotProgrammedError(_NOT_PROGRAMMED)
        queries = np.asarray(queries, dtype=int)
        if queries.ndim != 2 or queries.shape[1] != self.dims:
            raise ValueError(
                f"expected (n, {self.dims}) queries, got {queries.shape}"
            )
        return self.cell.sl_alphabet, self.cell.dl_alphabet, queries

    def search_k_batch(
        self,
        queries: np.ndarray,
        k: int,
        active_rows: Optional[np.ndarray] = None,
    ):
        """Vectorised k-nearest search over a query batch.

        The batched counterpart of :meth:`search_k`: per query, the LTA
        decides ``k`` rounds with each round's winner masked out.
        Returns a :class:`repro.arch.crossbar.BatchSearchKResult` with
        (n, k) winners (nearest first) and the full (n, rows) hardware
        distance readings (converted when read; ``winner_units`` holds
        the winners' alone), bit-identical to looping :meth:`search_k`
        but orders of magnitude faster to simulate: the batch rides the
        array's one score -> select pipeline
        (:meth:`FeReXArray.search_k_batch_values`).  ``active_rows``
        optionally pre-masks rows out of every round (unwritten
        capacity, tombstones); ``k`` is then bounded by the number of
        competing rows.
        """
        bias = self._batch_bias(queries)
        return self.array.search_k_batch_values(
            *bias, k, active_rows=active_rows
        )

    def search_batch(
        self,
        queries: np.ndarray,
        active_rows: Optional[np.ndarray] = None,
    ):
        """Vectorised nearest-neighbor search over a query batch: the
        ``k = 1`` view of :meth:`search_k_batch`.

        Returns a :class:`repro.arch.crossbar.BatchSearchResult` whose
        winners and ``row_units`` are bit-identical to looping
        :meth:`search`.
        """
        bias = self._batch_bias(queries)
        return self.array.search_batch_values(
            *bias, active_rows=active_rows
        )

    def readout_batch(self, queries: np.ndarray) -> np.ndarray:
        """(n, rows) hardware distance readings without an LTA decision.

        The coarse-tier/shortlist primitive: bit-identical to
        ``search_batch(queries).row_units`` (same scorer) but skips the
        select and the per-query timing/energy accounting — callers
        that merge and rank readouts across banks pay only for the
        array evaluation.
        """
        bias = self._batch_bias(queries)
        return self.array.readout_batch_values(*bias)

    def search_k(
        self, query: Sequence[int], k: int
    ) -> List[EngineSearchResult]:
        """k-nearest search via iterative LTA masking."""
        if self.array is None:
            raise NotProgrammedError(_NOT_PROGRAMMED)
        sl, dl = self._query_bias(query)
        results = self.array.search_k(sl, dl, k)
        return [
            EngineSearchResult(
                winner=r.winner,
                hardware_distances=r.row_units,
                array_result=r,
            )
            for r in results
        ]

    # ------------------------------------------------------------------
    # Software reference
    # ------------------------------------------------------------------
    def software_distances(self, query: Sequence[int]) -> np.ndarray:
        """Exact digital distances to every stored vector (the baseline
        hardware accuracy is judged against).

        Requires a fully written array: on a partially filled
        allocation the placeholder rows are not data, and reporting
        distances to them would corrupt accuracy comparisons.
        """
        if self.stored is None:
            raise NotProgrammedError("program() must be called first")
        if not self._row_written.all():
            raise NotProgrammedError(
                "software_distances() needs every row written; only "
                f"{int(self._row_written.sum())} of "
                f"{len(self._row_written)} rows are"
            )
        query = np.asarray(query, dtype=int).reshape(1, -1)
        return self.metric.pairwise(query, self.stored, self.bits)[0]

    def software_nearest(self, query: Sequence[int]) -> int:
        """Index of the true nearest stored vector."""
        return int(np.argmin(self.software_distances(query)))
