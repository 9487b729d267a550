"""Behavioural simulator of the 1FeFET1R crossbar array.

This is the Python stand-in for the paper's Cadence array netlist.  It
stores what was written to each device (its Vth level), derives the
electrical state a search sees (threshold voltage, series resistance —
both with sampled process variation) where it is read, applies the
paper's biasing schemes, and evaluates search currents vectorised over
the whole array:

* **write/erase** (paper Sec. III-A): one row selected (RL = 0 V), all
  others inhibited at ``Vwrite / 2`` so their gate stacks never see a
  switching field.  The simulator tracks disturb exposure of inhibited
  cells and drifts their threshold if the inhibited stack voltage
  approaches the coercive voltage — with the paper's scheme it never does,
  which a regression test asserts.
* **search**: search voltages on the SL gates, integer-multiple ``Vds`` on
  the DLs, every ScL clamped at the op-amp reference.  A FeFET conducts
  ``Vds / R`` when ON (clamp regime) and its subthreshold leakage when
  OFF.  Row currents aggregate along the ScL and feed the LTA.

The electrical model matches :mod:`repro.devices.cell` (the fast path)
but evaluates in numpy across the array, which is what makes Monte Carlo
over 100 array instances x thousands of queries tractable.

Batch pipeline
--------------
A batch search is one score -> select pipeline, whatever the entry
point:

* **score** — one scorer per bias form.  Alphabet-indexed queries
  (:meth:`FeReXArray.search_k_batch_values`, the associative-memory
  form: every query element picks its cell's bias from a small
  alphabet) run the compiled integer kernel when the array is eligible
  and otherwise value-select from a per-cell float table cached until
  the next write.  Arbitrary bias matrices
  (:meth:`FeReXArray.search_k_batch`) are matched back onto the
  registered alphabet and take the same kernel, or fall through to the
  blocked float physics (:meth:`FeReXArray.cell_currents_block`).
* **select** — one exact stable partial top-k of the offset-adjusted
  competition currents: masking an LTA winner to ``+inf`` and
  re-deciding picks the next entry of the stable order, so its first
  ``k`` entries *are* the ``k`` winner-masking rounds, for any
  comparator offsets — and no row is sorted beyond them.  Float
  currents go through ``_select``
  (:func:`repro.circuits.lta.stable_top_k`); the kernel's exact integer
  scores, on arrays whose offsets are all zero, through
  :func:`repro.circuits.lta.integer_top_k`'s unique integer keys.
  Readings are converted to unit currents only where read.

:meth:`FeReXArray.search_batch` / :meth:`FeReXArray.search_batch_values`
are the ``k = 1`` views and :meth:`FeReXArray.readout_batch_values` is
the scorer without the select.  Serial :meth:`FeReXArray.search` /
:meth:`FeReXArray.search_k` keep the round-by-round, margin-aware
:class:`LoserTakeAll` flow — the hardware reference the batch pipeline
is property-tested against (winners and ``row_units`` bit-identical).

Quantized integer kernel
------------------------
On ideal (unvaried, undrifted) arrays every search path above routes
through an exact integer kernel instead of re-evaluated float device
physics: a :class:`repro.core.kernel.QuantizedKernel` whose codes are
the values stored in each cell and whose LUT is the configuration's
(query value, stored value) score table at the configuration's quantum
(:meth:`repro.core.FeReX.value_lut`), so every bank of one
configuration reads a stored row at the same distance.  The engine that
wrote the array compiles it (:meth:`FeReXArray.set_kernel_compiler`);
:meth:`FeReXArray.quantized_kernel` memoises it per write generation,
for the registered search alphabet only.  Generic bias matrices are
matched back onto that alphabet (:meth:`FeReXArray.set_search_alphabet`)
so serial, batch and values-path searches all hit the same kernel and
stay bit-identical.  Varied / drifted arrays — the Monte Carlo setting
—, foreign bias alphabets, arrays written past their engine and arrays
with no engine keep the float physics path; ``kernel_enabled`` switches
the kernel off entirely (the benchmark baseline).
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..circuits.lta import (
    LoserTakeAll,
    LTADecision,
    integer_top_k,
    stable_top_k,
)
from ..devices.cell import fast_cell_currents
from ..devices.tech import TechConfig, DEFAULT_TECH
from ..devices.variation import ArrayVariation, nominal_variation
from .energy import EnergyBreakdown, EnergyModel
from .parasitics import ArrayParasitics, extract
from .timing import SearchTiming, TimingModel


def vth_ladder(fefet) -> np.ndarray:
    """Nominal threshold per stored level of ``fefet``'s MLC ladder.
    The erased state comes last, so indexing with level -1 reads it."""
    return np.array(
        [fefet.vth_level(lv) for lv in range(fefet.n_vth_levels)]
        + [fefet.vth_low + fefet.memory_window]
    )


def _frozen(values: np.ndarray) -> bool:
    """Whether nothing can write ``values``' memory: it and every array
    it views are read-only, down to one that owns its data."""
    while not values.flags.writeable:
        if values.base is None:
            return True
        if not isinstance(values.base, np.ndarray):
            return False
        values = values.base
    return False


def _alphabet_key(values: np.ndarray):
    """A :meth:`FeReXArray._memo` key for a bias alphabet: a frozen
    array stands for itself, any other for a copy of its bytes."""
    return values if _frozen(values) else values.tobytes()


def _matches(key, values: np.ndarray) -> bool:
    """Whether ``key`` (an :func:`_alphabet_key`) still names
    ``values``."""
    if isinstance(key, bytes):
        return key == values.tobytes()
    return key is values and _frozen(values)


@dataclass
class SearchResult:
    """Everything one array search produces."""

    #: (rows,) aggregated ScL currents, amps.
    row_currents: np.ndarray
    #: (rows,) currents expressed in nominal unit currents (distance reading).
    row_units: np.ndarray
    #: LTA decision (winner row index + electrical metadata).
    decision: LTADecision
    #: Latency breakdown.
    timing: SearchTiming
    #: Energy breakdown.
    energy: EnergyBreakdown

    @property
    def winner(self) -> int:
        return self.decision.winner

    def ranked_rows(self) -> np.ndarray:
        """Row indices sorted by measured current (closest first)."""
        return np.argsort(self.row_currents, kind="stable")


@dataclass(frozen=True)
class _Readings:
    """A batch's (n_queries, rows) distance readings, converted to unit
    currents only where read: ``raw * quantum / unit_current``.

    ``raw`` holds the compiled kernel's exact int64 scores (``quantum``
    is the kernel's) or float row currents in amps (``quantum`` is 1.0,
    an exact multiply), so every conversion is bit-identical to dividing
    the row currents by the unit current.
    """

    raw: np.ndarray
    quantum: float
    unit_current: float

    def units(self, raw: np.ndarray) -> np.ndarray:
        return raw * self.quantum / self.unit_current

    @functools.cached_property
    def row_units(self) -> np.ndarray:
        return self.units(self.raw)


@dataclass
class _BatchOutcome:
    """What every batch search returns."""

    #: LTA winners: (n_queries,) for a nearest search, (n_queries, k)
    #: nearest first for a top-k search.
    winners: np.ndarray
    #: Latency of each search (identical across the batch).
    timing_per_query: SearchTiming
    #: The raw readings behind :attr:`row_units`.
    _readings: _Readings = field(repr=False)
    #: Evaluates :attr:`energy_per_query` on first call, then returns
    #: the same breakdown.
    _energy: Callable[[], EnergyBreakdown] = field(repr=False)

    @property
    def row_units(self) -> np.ndarray:
        """(n_queries, rows) distance readings in unit currents,
        evaluated when first read."""
        return self._readings.row_units

    @property
    def energy_per_query(self) -> EnergyBreakdown:
        """Energy of each search (nominal-activity estimate),
        evaluated when first read."""
        return self._energy()

    @property
    def n_queries(self) -> int:
        return len(self.winners)


class BatchSearchResult(_BatchOutcome):
    """Vectorised outcome of a query batch."""

    @property
    def total_time(self) -> float:
        """Wall time of the serialised batch, seconds."""
        return self.n_queries * self.timing_per_query.total

    @property
    def total_energy(self) -> float:
        """Energy of the serialised batch, joules."""
        return self.n_queries * self.energy_per_query.total


class BatchSearchKResult(_BatchOutcome):
    """Vectorised outcome of an iterative top-k search over a batch.

    Per query, ``winners`` holds the ``k`` LTA winners in decision order
    (nearest first), matching the list :meth:`FeReXArray.search_k`
    returns for the same query.
    """

    @property
    def k(self) -> int:
        return self.winners.shape[1]

    @property
    def winner_units(self) -> np.ndarray:
        """(n_queries, k) readings of :attr:`winners` alone:
        ``take_along_axis(row_units, winners)`` bit for bit, without
        converting the rows that lost."""
        readings = self._readings
        rows = np.arange(len(self.winners))[:, None]
        return readings.units(readings.raw[rows, self.winners])

    def nearest(self) -> BatchSearchResult:
        """The ``k = 1`` view: each query's first winner."""
        return BatchSearchResult(
            winners=self.winners[:, 0],
            timing_per_query=self.timing_per_query,
            _readings=self._readings,
            _energy=self._energy,
        )


class FeReXArray:
    """A rows x physical_cols 1FeFET1R crossbar with LTA read-out.

    ``physical_cols`` counts FeFET columns; the data-to-device fan-out
    (K FeFETs per encoded element) is handled by the mapping layer in
    :mod:`repro.core.engine`, which drives this class with per-column
    voltages.

    Stored versus derived
    ---------------------
    A multi-bit FeFET cell's whole state is which Vth level it was
    programmed to, so that is all the array stores per cell; the
    electrical state a search sees is computed where it is read:

    ======================  =======  ==================================
    state                   held     as
    ======================  =======  ==================================
    ``levels``              stored   (rows, cols) narrowest int dtype
                                     holding ``-1 .. n_vth_levels - 1``
    disturb drift           stored   (rows,) volts — half-select
                                     stress is uniform along a row
    ``variation``           adopted  the caller's sample, uncopied
                                     (ideal: zero-stride constants)
    ``vth``                 derived  ``lut[levels] + vth_offset +
                                     drift[:, None]``
    ``resistance``          derived  ``R * r_factor``
    ======================  =======  ==================================

    Scoring derives ``vth`` / ``resistance`` once per call (the float
    physics) or not at all (the compiled kernel reads the values the
    engine stored).
    """

    #: Threshold drift per disturb event, volts per volt of overdrive
    #: beyond the safe stack voltage.
    DISTURB_DRIFT_PER_VOLT = 0.01
    #: Multiple of the coercive voltage a half-selected stack tolerates
    #: for one write-pulse duration without measurable switching.
    #: Ferroelectric switching is strongly field-time nonlinear
    #: (nucleation-limited switching): a full-select pulse at ~4x Vc
    #: switches in a microsecond, while a half-select stack at ~1.7x Vc
    #: needs orders of magnitude longer than the pulse [Ni, EDL 2018].
    #: The V/2 inhibition scheme is designed exactly around this margin.
    DISTURB_SAFE_FRACTION = 2.0

    def __init__(
        self,
        rows: int,
        physical_cols: int,
        tech: Optional[TechConfig] = None,
        variation: Optional[ArrayVariation] = None,
        cell_fanout: int = 1,
    ):
        if rows < 1 or physical_cols < 1:
            raise ValueError("array needs at least one row and one column")
        if cell_fanout < 1 or physical_cols % cell_fanout:
            raise ValueError(
                f"cell_fanout {cell_fanout} must divide "
                f"physical_cols {physical_cols}"
            )
        self.rows = rows
        self.physical_cols = physical_cols
        #: FeFET columns per encoded element (the mapping layer's K).
        #: Row currents aggregate per-cell partial sums first, which the
        #: bias-alphabet fast path exploits with a per-cell table.
        self.cell_fanout = cell_fanout
        #: Encoded elements per row.
        self.cells = physical_cols // cell_fanout
        self.tech = tech or DEFAULT_TECH
        #: Every device exactly nominal?  Known for the nominal
        #: constants built here; scanned on first use for a supplied
        #: sample (see :meth:`_variation_is_ideal`).
        self._ideal_variation = True if variation is None else None
        if variation is None:
            variation = nominal_variation(rows, physical_cols)
        if variation.shape != (rows, physical_cols):
            raise ValueError(
                f"variation shape {variation.shape} != "
                f"({rows}, {physical_cols})"
            )
        self.variation = variation

        fefet = self.tech.fefet
        #: Nominal threshold per stored level (see :func:`vth_ladder`).
        self._vth_lut = vth_ladder(fefet)
        #: Disturb-induced drift accumulated per row, volts.
        self._disturb_drift = np.zeros(rows)
        #: Stored MLC level per cell, -1 = erased.
        self.levels = np.full(
            (rows, physical_cols),
            -1,
            dtype=np.min_scalar_type(-fefet.n_vth_levels),
        )

        self.parasitics: ArrayParasitics = extract(
            rows,
            physical_cols,
            wire=self.tech.wire,
            cell=self.tech.cell,
            feature_size=self.tech.feature_size,
        )
        self.energy_model = EnergyModel(
            rows, physical_cols, self.tech, self.parasitics
        )
        self.timing_model = TimingModel(
            rows, physical_cols, self.tech, self.parasitics
        )
        #: Batch searches' per-query timing at the nominal margin: it
        #: depends on the geometry alone, so it is evaluated once.
        self._nominal_timing = self.timing_model.search_timing()
        self._lta = LoserTakeAll(
            rows, self.tech.lta, offsets=variation.lta_offset
        )
        #: Cumulative write energy, joules.
        self.write_energy_total = 0.0
        #: Count of disturb-unsafe exposures observed (should stay 0).
        self.disturb_violations = 0
        #: Bumped on every write so cached search tables invalidate.
        self.write_generation = 0
        #: The values scorer's per-alphabet state ("table" / "kernel"),
        #: name -> (key, value); see :meth:`_memo`.
        self._scorer_cache: dict = {}
        #: Serialises :meth:`_memo` builds across reader threads.
        self._build_lock = threading.Lock()
        #: Master switch for the quantized integer kernel; ``False``
        #: forces the float-physics path everywhere (the benchmark
        #: baseline and an escape hatch).
        self.kernel_enabled = True
        #: Registered bias alphabet generic searches are matched onto.
        self._alphabet: Optional[tuple] = None
        #: Weak reference to the registered kernel compile.
        self._compiler: Optional[weakref.WeakMethod] = None

    # ------------------------------------------------------------------
    # Observable device state
    # ------------------------------------------------------------------
    @property
    def vth(self) -> np.ndarray:
        """Actual per-cell thresholds: nominal + D2D offset + drift."""
        return (
            self._vth_lut[self.levels]
            + self.variation.vth_offset
            + self._disturb_drift[:, None]
        )

    @property
    def resistance(self) -> np.ndarray:
        """Actual per-cell series resistance, ohms."""
        return self.tech.cell.resistance * self.variation.r_factor

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def erase_row(self, row: int) -> None:
        """Block-erase one row to the highest threshold state."""
        self._check_row(row)
        self.write_generation += 1
        self.levels[row, :] = -1
        self._account_write(self.physical_cols)
        self._apply_disturb_rows(row, 1, pulses_per_row=1)

    def program_row(self, row: int, levels: Sequence[int]) -> None:
        """Erase-then-program a full row of MLC levels.

        ``levels`` must contain valid level indices
        (``0 .. n_vth_levels-1``); the whole row is written in one
        erase + one program pulse per level group, with every other row
        inhibited.
        """
        self._check_row(row)
        levels = np.asarray(levels, dtype=int)
        if levels.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} levels, got {levels.shape}"
            )
        fefet = self.tech.fefet
        if levels.min() < 0 or levels.max() >= fefet.n_vth_levels:
            raise ValueError("level outside the device MLC range")

        self.erase_row(row)
        self.write_generation += 1
        self.levels[row, :] = levels
        self._account_write(self.physical_cols)
        self._apply_disturb_rows(row, 1, pulses_per_row=1)

    def program_matrix(self, levels: np.ndarray) -> None:
        """Program every row of the array from a (rows, cols) level matrix.

        Fast path equivalent to looping :meth:`program_row` over every
        row, but O(rows): delegates to :meth:`program_rows` on the full
        row span, so thresholds are written through one vectorised
        level-to-Vth lookup and the erase/program energy plus half-select
        disturb exposure are accounted in a single closed-form pass
        instead of the per-written-row loop (which re-touches every
        *other* row per write, O(rows^2) work in total).  Unlike the
        loop, validation happens up front, so an invalid level matrix
        leaves the array untouched.
        """
        levels = np.asarray(levels, dtype=int)
        if levels.shape != (self.rows, self.physical_cols):
            raise ValueError(
                f"expected shape ({self.rows}, {self.physical_cols}), "
                f"got {levels.shape}"
            )
        self.program_rows(0, levels)

    def program_rows(self, start: int, levels: np.ndarray) -> None:
        """Erase-then-program a contiguous slice of rows, vectorised.

        The row-level incremental write path: rows ``start ..
        start + n - 1`` are written from an (n, physical_cols) level
        matrix while every other row is inhibited, leaving previously
        programmed rows untouched.  This is how a deployed bank admits
        new vectors without a full re-program (see
        :class:`repro.index.FerexIndex`).  Energy and half-select
        disturb exposure are accounted in closed form, identical to the
        per-row loop summed analytically; validation happens up front so
        an invalid write leaves the array untouched.
        """
        levels = np.asarray(levels, dtype=int)
        if levels.ndim != 2 or levels.shape[1] != self.physical_cols:
            raise ValueError(
                f"expected (n, {self.physical_cols}) levels, got "
                f"{levels.shape}"
            )
        n = levels.shape[0]
        if n < 1:
            raise ValueError("need at least one row to program")
        if not 0 <= start or start + n > self.rows:
            raise ValueError(
                f"row span [{start}, {start + n}) outside [0, {self.rows})"
            )
        fefet = self.tech.fefet
        if levels.min() < 0 or levels.max() >= fefet.n_vth_levels:
            raise ValueError("level outside the device MLC range")

        self.write_generation += 1
        self.levels[start : start + n] = levels
        # Each written row costs one erase pulse + one program pulse over
        # all of its cells, exactly as in program_row.
        self._account_write(self.physical_cols, n_pulses=2 * n)
        self._apply_disturb_rows(start, n, pulses_per_row=2)

    def _apply_disturb_rows(
        self, start: int, n: int, pulses_per_row: int
    ) -> None:
        """Closed-form disturb accounting for an n-row slice write.

        Each pulse on a written row half-selects every *other* row, so a
        row outside the slice sees ``pulses_per_row * n`` events while a
        row inside it sees ``pulses_per_row * (n - 1)`` (it is fully
        selected, not inhibited, during its own write).  The inhibited
        stack voltage is ``Vwrite - Vwrite/2 = Vwrite/2``; if that
        exceeds the safe fraction of the coercive voltage the threshold
        of inhibited rows drifts down slightly and the events are
        counted.  With the paper's inhibition scheme it never triggers.
        """
        fefet = self.tech.fefet
        half = 0.5 * self.tech.driver.write_voltage
        safe = self.DISTURB_SAFE_FRACTION * fefet.coercive_voltage
        overdrive = half - safe
        if overdrive <= 0:
            return
        events = np.full(self.rows, pulses_per_row * n, dtype=float)
        events[start : start + n] = pulses_per_row * (n - 1)
        self._disturb_drift -= (
            self.DISTURB_DRIFT_PER_VOLT * overdrive * events
        )
        self.disturb_violations += (
            pulses_per_row * n * (self.rows - 1) * self.physical_cols
        )

    def _account_write(self, n_cells: int, n_pulses: int = 1) -> None:
        self.write_energy_total += (
            n_pulses * self.energy_model.write_energy(n_cells).total
        )

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} outside [0, {self.rows})")

    # ------------------------------------------------------------------
    # Search path
    # ------------------------------------------------------------------
    def cell_currents(
        self,
        sl_voltages: Sequence[float],
        dl_multiples: Sequence[int],
    ) -> np.ndarray:
        """(rows, cols) per-cell currents under the given search bias.

        Vectorised fast-path model: ON cells are clamped to ``Vds / R``
        (the series resistor dominates); OFF cells leak the subthreshold
        current capped by the clamp.  One-query view of
        :meth:`cell_currents_block`, which is the shared evaluation
        kernel of :meth:`search` and :meth:`search_batch`.
        """
        sl = np.asarray(sl_voltages, dtype=float)
        dl = np.asarray(dl_multiples, dtype=int)
        if sl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} SL voltages, got {sl.shape}"
            )
        if dl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} DL levels, got {dl.shape}"
            )
        return self.cell_currents_block(sl[None, :], dl[None, :])[0]

    def cell_currents_block(
        self,
        sl_block: np.ndarray,
        dl_block: np.ndarray,
    ) -> np.ndarray:
        """(n_queries, rows, cols) per-cell currents for a query block.

        The 3-D evaluation kernel behind both the serial and the batch
        search paths: the device physics broadcasts over a leading query
        axis, so a block of queries costs one numpy pass instead of a
        Python loop.  Per-element arithmetic is identical to the
        one-query case, which keeps serial and batch results
        bit-identical.
        """
        sl, dl = self._validate_batch_bias(sl_block, dl_block)
        return self._physics(sl, dl, self.vth, self.resistance)

    def _physics(
        self,
        sl: np.ndarray,
        dl: np.ndarray,
        vth: np.ndarray,
        resistance: np.ndarray,
    ) -> np.ndarray:
        """:meth:`cell_currents_block` on shape-checked bias blocks
        against an already derived device state, so a caller evaluating
        many blocks derives ``vth`` / ``resistance`` once."""
        cell = self.tech.cell
        if dl.size and (dl.min() < 0 or dl.max() > cell.max_vds_multiple):
            raise ValueError("DL multiple outside the selector's range")
        return fast_cell_currents(
            sl[:, None, :],
            dl[:, None, :],
            vth[None, :, :],
            resistance[None, :, :],
            self.tech.fefet,
            cell,
        )

    def _cell_sums(self, currents: np.ndarray) -> np.ndarray:
        """(n, rows, cells) per-cell partial sums of (n, rows, cols)
        currents: each encoded element's ``cell_fanout`` FeFET columns
        aggregate first.  Both the serial and every batch path reduce
        through this same two-stage tree, which keeps them bit-identical
        and lets the bias-alphabet fast path precompute per-cell sums.
        """
        if self.cell_fanout == 1:
            return currents
        n = currents.shape[0]
        return currents.reshape(
            n, self.rows, self.cells, self.cell_fanout
        ).sum(axis=3)

    def _row_currents(
        self, sl_matrix: np.ndarray, dl_matrix: np.ndarray
    ) -> np.ndarray:
        """(n_queries, rows) aggregated, gain-scaled ScL currents by
        float physics: the device state is derived once and the queries
        are evaluated one cache-resident block at a time."""
        vth, resistance = self.vth, self.resistance
        row_currents = np.empty((len(sl_matrix), self.rows))
        for block in self._blocks(len(sl_matrix)):
            currents = self._physics(
                sl_matrix[block], dl_matrix[block], vth, resistance
            )
            # Per-row sensing gain: residual ScL clamp error scales
            # every cell's Vds in a row, hence the whole row reading.
            row_currents[block] = (
                self._cell_sums(currents).sum(axis=2)
                * self.variation.row_gain[None, :]
            )
        return row_currents

    def search(
        self,
        sl_voltages: Sequence[float],
        dl_multiples: Sequence[int],
        active_rows: Optional[np.ndarray] = None,
    ) -> SearchResult:
        """One associative search: bias, aggregate, LTA-decide.

        ``active_rows`` optionally masks rows out of the competition (used
        by iterative top-k search); masked rows still conduct but their
        LTA branch is disabled.
        """
        sl = np.asarray(sl_voltages, dtype=float)
        dl = np.asarray(dl_multiples, dtype=int)
        if sl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} SL voltages, got {sl.shape}"
            )
        if dl.shape != (self.physical_cols,):
            raise ValueError(
                f"expected {self.physical_cols} DL levels, got {dl.shape}"
            )
        raw, quantum = self._score_bias(sl[None, :], dl[None, :])
        row_currents = raw[0] * quantum

        active = self._validate_active_rows(active_rows)
        compete = self._masked_compete(row_currents[None, :], active)[0]

        decision = self._lta.decide(compete)
        timing = self.timing_model.search_timing(decision.margin)
        energy = self.energy_model.search_energy(row_currents, dl, timing)
        energy.add("lta", 0.0)  # ensure key exists even for 1-row arrays
        row_units = row_currents / self.tech.cell.unit_current
        return SearchResult(
            row_currents=row_currents,
            row_units=row_units,
            decision=decision,
            timing=timing,
            energy=energy,
        )

    def _validate_batch_bias(
        self, sl_matrix: np.ndarray, dl_matrix: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        sl_matrix = np.asarray(sl_matrix, dtype=float)
        dl_matrix = np.asarray(dl_matrix, dtype=int)
        if sl_matrix.ndim != 2 or sl_matrix.shape[1] != self.physical_cols:
            raise ValueError(
                f"expected (n, {self.physical_cols}) SL matrix, got "
                f"{sl_matrix.shape}"
            )
        if dl_matrix.shape != sl_matrix.shape:
            raise ValueError("SL and DL matrices must have equal shapes")
        return sl_matrix, dl_matrix

    #: Cells per numpy block of the float-physics scorers: queries are
    #: evaluated ``BLOCK_CELLS // (rows * physical_cols)`` at a time so
    #: the working tensor stays cache-resident (tests lower it to force
    #: multi-block batches).
    BLOCK_CELLS = 1 << 18

    def _blocks(self, n_queries: int):
        """Query slices of at most one float-physics block each."""
        step = max(1, self.BLOCK_CELLS // (self.rows * self.physical_cols))
        return (
            slice(start, start + step)
            for start in range(0, n_queries, step)
        )

    def _memo(
        self, name: str, sl_values: np.ndarray, dl_values: np.ndarray, build
    ):
        """``build(sl_values, dl_values)``, memoised per bias alphabet
        against the write generation: re-programming any row (or a new
        alphabet) invalidates the value, while back-to-back searches —
        the Monte Carlo / inference hot path — reuse it.

        A frozen alphabet (the configuration's shared one) is keyed by
        identity; any other by a snapshot of its bytes, so an in-place
        change to it is never served stale."""
        generation = self.write_generation
        # Single flight: concurrent readers of one generation wait for
        # the first builder instead of building it again.
        with self._build_lock:
            cached = self._scorer_cache.get(name)
            if cached is None or not (
                cached[0][0] == generation
                and _matches(cached[0][1], sl_values)
                and _matches(cached[0][2], dl_values)
            ):
                key = (
                    generation,
                    _alphabet_key(sl_values),
                    _alphabet_key(dl_values),
                )
                cached = (key, build(sl_values, dl_values))
                self._scorer_cache[name] = cached
        return cached[1]

    def _bias_current_table(
        self, sl_values: np.ndarray, dl_values: np.ndarray
    ) -> np.ndarray:
        """(n_values, rows, cells) per-cell current sums per alphabet
        entry (memoised, see :meth:`_memo`).

        Cell currents for every alphabet row are evaluated through the
        shared physics kernel and pre-reduced over each cell's
        ``cell_fanout`` columns (the same within-cell tree
        :meth:`_cell_sums` applies everywhere).
        """
        return self._memo(
            "table",
            sl_values,
            dl_values,
            lambda sl, dl: self._cell_sums(self.cell_currents_block(sl, dl)),
        )

    # ------------------------------------------------------------------
    # Quantized integer kernel
    # ------------------------------------------------------------------
    def set_search_alphabet(
        self, sl_values: np.ndarray, dl_values: np.ndarray
    ) -> None:
        """Register the bias alphabet generic searches are drawn from.

        The mapping layer (:class:`repro.core.engine.FeReX`) calls this
        with its per-value bias tables; generic :meth:`search` /
        :meth:`search_batch` / :meth:`search_k_batch` calls then try to
        match their bias matrices back onto the alphabet and route
        through the quantized kernel, keeping them bit-identical to the
        values fast path.  Unrelated bias matrices simply fail the match
        and fall back to the float physics.
        """
        sl_values, dl_values = self._validate_batch_bias(
            sl_values, dl_values
        )
        self._alphabet = (sl_values, dl_values)

    def set_kernel_compiler(
        self, compiler: Callable[[], Optional[object]]
    ) -> None:
        """Register the bound method that compiles this array's
        :class:`repro.core.kernel.QuantizedKernel` (``None`` when it
        cannot); :meth:`_compile_kernel` calls it behind the
        eligibility gate.  Held weakly: the array never keeps its
        engine alive."""
        self._compiler = weakref.WeakMethod(compiler)

    def _variation_is_ideal(self) -> bool:
        """True when every sampled device/comparator variation is
        exactly nominal — the static half of the kernel's eligibility
        gate (a shared per-value LUT cannot model per-device spread).
        A supplied sample is scanned once (the variation object is fixed
        at construction); the nominal constants are ideal by build."""
        if self._ideal_variation is None:
            v = self.variation
            self._ideal_variation = bool(
                not np.any(v.vth_offset)
                and np.all(v.r_factor == 1.0)
                and not np.any(v.lta_offset)
                and np.all(v.row_gain == 1.0)
            )
        return self._ideal_variation

    def _kernel_for(self, sl_values: np.ndarray, dl_values: np.ndarray):
        """The compiled :class:`repro.core.kernel.QuantizedKernel` for a
        bias alphabet, or ``None`` when the array is ineligible.

        Memoised (:meth:`_memo`) exactly like the float bias table;
        ineligible combinations memoise ``None`` so the float path
        does not re-attempt compilation on every batch.
        """
        if not self.kernel_enabled:
            return None
        return self._memo(
            "kernel", sl_values, dl_values, self._compile_kernel
        )

    def _compile_kernel(self, sl_values: np.ndarray, dl_values: np.ndarray):
        """The registered compile's kernel for one write generation, or
        ``None`` (float physics) where the array is ineligible: varied
        or drifted devices, a bias alphabet other than the registered
        one, or no live compile registered."""
        build = self._compiler and self._compiler()
        if (
            build is None
            or not self._variation_is_ideal()
            or np.any(self._disturb_drift)
            or not np.array_equal(sl_values, self._alphabet[0])
            or not np.array_equal(dl_values, self._alphabet[1])
        ):
            return None
        return build()

    def quantized_kernel(self):
        """The compiled kernel for the registered search alphabet, or
        ``None`` when no alphabet is registered or the array is
        ineligible (no engine compiles it, varied or drifted devices,
        kernel disabled, a write past the engine, overflow)."""
        if self._alphabet is None:
            return None
        return self._kernel_for(*self._alphabet)

    def _match_value_index(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
    ) -> Optional[np.ndarray]:
        """(n, cells) alphabet row per query cell, or ``None`` when any
        cell's bias is not an exact alphabet entry.

        Only called once the alphabet compiled (hence is cell-uniform),
        so each query cell is compared against the per-element alphabet
        slice.  Exact float equality is intentional: conforming queries
        are tiled from the very same tables, and anything else must take
        the physics path.
        """
        n = sl_matrix.shape[0]
        n_values = sl_values.shape[0]
        k = self.cell_fanout
        sl_q = sl_matrix.reshape(n, self.cells, k)
        dl_q = dl_matrix.reshape(n, self.cells, k)
        sl_a = sl_values.reshape(n_values, self.cells, k)[:, 0, :]
        dl_a = dl_values.reshape(n_values, self.cells, k)[:, 0, :]
        match = np.all(
            sl_q[:, :, None, :] == sl_a[None, None, :, :], axis=3
        ) & np.all(dl_q[:, :, None, :] == dl_a[None, None, :, :], axis=3)
        if not match.any(axis=2).all():
            return None
        return match.argmax(axis=2)

    def _kernel_match(self, sl_matrix: np.ndarray, dl_matrix: np.ndarray):
        """``(kernel, value_index)`` for a generic bias matrix drawn from
        the registered alphabet; ``None`` routes the caller to the float
        physics path."""
        if self._alphabet is None or not self.kernel_enabled:
            return None
        sl_values, dl_values = self._alphabet
        kernel = self._kernel_for(sl_values, dl_values)
        if kernel is None:
            return None
        value_index = self._match_value_index(
            sl_matrix, dl_matrix, sl_values, dl_values
        )
        if value_index is None:
            return None
        return kernel, value_index

    def _validate_value_bias(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sl_values, dl_values = self._validate_batch_bias(
            sl_values, dl_values
        )
        value_index = np.asarray(value_index, dtype=int)
        if value_index.ndim != 2 or value_index.shape[1] != self.cells:
            raise ValueError(
                f"expected (n, {self.cells}) per-cell value index, got "
                f"{value_index.shape}"
            )
        return sl_values, dl_values, value_index

    def _first_query_dl(
        self, dl_values: np.ndarray, value_index: np.ndarray
    ) -> np.ndarray:
        """(physical_cols,) drain levels of the first query, for the
        nominal-activity energy estimate."""
        per_col = np.repeat(value_index[0], self.cell_fanout)
        return dl_values[per_col, np.arange(self.physical_cols)]

    def _validate_active_rows(
        self, active_rows: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Normalise the optional competition mask to a (rows,) bool
        array (``None`` = all rows compete)."""
        if active_rows is None:
            return None
        active_rows = np.asarray(active_rows, dtype=bool)
        if active_rows.shape != (self.rows,):
            raise ValueError("active_rows must have one flag per row")
        if not active_rows.any():
            raise ValueError(
                "active_rows must leave at least one row competing"
            )
        return active_rows

    def _validate_competition(
        self, active_rows: Optional[np.ndarray], k: int
    ) -> Optional[np.ndarray]:
        """The validated competition mask of a ``k``-winner batch
        search; ``k`` is bounded by the number of competing rows."""
        active = self._validate_active_rows(active_rows)
        n_competing = self.rows if active is None else int(active.sum())
        if not 1 <= k <= n_competing:
            raise ValueError(f"k={k} outside [1, {n_competing}]")
        return active

    def _masked_compete(
        self, row_currents: np.ndarray, active: Optional[np.ndarray]
    ) -> np.ndarray:
        """Competition currents with masked rows' LTA branches disabled
        (the interface MUX disconnects their ScL, modelled as +inf)."""
        if active is None:
            return row_currents.copy()
        return np.where(active[None, :], row_currents, np.inf)

    # ------------------------------------------------------------------
    # Batch pipeline: score -> select
    # ------------------------------------------------------------------
    def _score_bias(
        self, sl_matrix: np.ndarray, dl_matrix: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """``(raw, quantum)`` (n_queries, rows) row currents
        ``raw * quantum`` for arbitrary bias matrices: the compiled
        kernel's int64 scores when every query matches the registered
        alphabet, else float amps (quantum 1.0) from the float physics
        in blocked 3-D numpy."""
        match = self._kernel_match(sl_matrix, dl_matrix)
        if match is not None:
            kernel, value_index = match
            return kernel.row_scores(value_index), kernel.quantum
        return self._row_currents(sl_matrix, dl_matrix), 1.0

    def _score_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
    ) -> tuple[np.ndarray, float]:
        """``(raw, quantum)`` (n_queries, rows) row currents
        ``raw * quantum`` for alphabet-indexed queries: the compiled
        kernel's int64 scores when the array is eligible, else float amps
        (quantum 1.0) by per-block value-select from the cached float
        table.

        The table's per-cell floats are exactly the ones
        :meth:`_row_currents` produces and the reduction after
        the select is the same, so the float branch is bit-identical
        to :meth:`_score_bias` on the expanded matrices at a fraction
        of its cost.
        """
        kernel = self._kernel_for(sl_values, dl_values)
        if kernel is not None:
            # The kernel range-checks the value index itself.
            return kernel.row_scores(value_index), kernel.quantum
        n_values = sl_values.shape[0]
        if value_index.size and (
            value_index.min() < 0 or value_index.max() >= n_values
        ):
            raise ValueError(
                f"value index outside [0, {n_values}) bias alphabet"
            )
        table = self._bias_current_table(sl_values, dl_values)
        row_currents = np.empty((len(value_index), self.rows))
        for block in self._blocks(len(value_index)):
            index = value_index[block][:, None, :]
            if len(table) > 1:
                currents = np.where(index == 0, table[0], table[1])
            else:
                currents = np.broadcast_to(
                    table[0], (len(index), *table.shape[1:])
                )
            for v in range(2, len(table)):
                np.copyto(currents, table[v], where=index == v)
            row_currents[block] = (
                currents.sum(axis=2) * self.variation.row_gain[None, :]
            )
        return row_currents, 1.0

    def _select(
        self,
        row_currents: np.ndarray,
        active: Optional[np.ndarray],
        k: int,
    ) -> np.ndarray:
        """(n_queries, k) LTA winners, nearest first.

        Each LTA round flags the stable minimum of the offset-adjusted
        competition currents, and masking that winner to ``+inf`` then
        re-deciding flags the next entry of the same stable order — so
        the ``k`` winner-masking rounds of serial :meth:`search_k` are
        the first ``k`` entries of that order, whatever the comparator
        offsets.  :func:`stable_top_k` reads them off exactly, without
        ordering the rows that lose.
        """
        offsets = self._lta.offsets
        if active is not None:
            # A masked row's LTA branch is disconnected: +inf, exactly
            # as serial search models it (finite current + inf = inf).
            offsets = np.where(active, offsets, np.inf)
        return stable_top_k(row_currents + offsets, k)

    def _finish(
        self,
        raw: np.ndarray,
        quantum: float,
        dl_first: Callable[[], np.ndarray],
        active: Optional[np.ndarray],
        k: int,
    ) -> BatchSearchKResult:
        """Select the winners of the row currents ``raw * quantum`` and
        attach the per-query timing/energy at nominal activity (nominal
        margin, first query's currents).

        The kernel's exact int64 scores select on unique integer keys
        (:func:`integer_top_k`): the kernel compiles only where every
        comparator offset is zero, so their stable order is the LTA's.
        Float currents take the offset-adjusted :meth:`_select`.
        Readings and energy are evaluated when (and if) they are read:
        only then does ``dl_first`` return the first query's drain
        levels.
        """
        if raw.dtype.kind == "i":
            winners = integer_top_k(raw, k, active)
        else:
            winners = self._select(raw, active, k)

        def energy() -> EnergyBreakdown:
            if not len(raw):  # no query: zero activity
                return self._nominal_energy(
                    np.zeros(self.rows), np.zeros(self.physical_cols, int)
                )
            return self._nominal_energy(raw[0] * quantum, dl_first())

        return BatchSearchKResult(
            winners=winners,
            timing_per_query=self._nominal_timing,
            _readings=_Readings(raw, quantum, self.tech.cell.unit_current),
            _energy=functools.cache(energy),
        )

    def _nominal_energy(
        self, row_currents: np.ndarray, dl_multiples: np.ndarray
    ) -> EnergyBreakdown:
        """One batch query's energy at the nominal margin."""
        energy = self.energy_model.search_energy(
            row_currents, dl_multiples, self._nominal_timing
        )
        energy.add("lta", 0.0)  # defensive parity with serial search()
        return energy

    def search_k_batch(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        k: int,
        active_rows: Optional[np.ndarray] = None,
    ) -> BatchSearchKResult:
        """Vectorised k-nearest search over a batch of arbitrary bias
        vectors.

        Electrically equivalent to calling :meth:`search_k` per query
        (the array is time-multiplexed; nothing is shared between
        queries) and bit-identical to it in winners and ``row_units``:
        cell currents come from the same kernel / blocked 3-D physics
        serial :meth:`search` evaluates, and the winners are the ``k``
        winner-masking LTA rounds — comparator offsets and stable tie
        ordering included — read off one stable partial top-k.  Per-query
        timing/energy are identical across the batch at the nominal
        margin, so the models are evaluated once.

        When the batch is drawn from a small bias alphabet (every query
        picks each column's bias from a few encoded levels — the AM
        setting), :meth:`search_k_batch_values` is substantially faster.

        Parameters
        ----------
        sl_matrix / dl_matrix:
            (n_queries, physical_cols) search voltages and drain levels.
        k:
            Winners per query, bounded by the number of competing rows.
        active_rows:
            Optional (rows,) bool mask; ``False`` rows still conduct but
            their LTA branch is disabled in every round (used for
            unwritten capacity and tombstoned rows in a
            :class:`repro.index.FerexIndex` bank), exactly as in serial
            :meth:`search`.
        """
        sl_matrix, dl_matrix = self._validate_batch_bias(
            sl_matrix, dl_matrix
        )
        active = self._validate_competition(active_rows, k)
        first = dl_matrix[:1].copy()
        return self._finish(
            *self._score_bias(sl_matrix, dl_matrix),
            lambda: first[0],
            active,
            k,
        )

    def search_k_batch_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
        k: int,
        active_rows: Optional[np.ndarray] = None,
    ) -> BatchSearchKResult:
        """Vectorised k-nearest search over a small per-column bias
        alphabet — the associative-memory fast path.

        Every query biases column ``c`` with one of ``n_values`` encoded
        levels, so the compiled kernel gathers integer scores per
        (value, stored code); on ineligible (varied / drifted) arrays
        per-cell currents are precomputed once into a
        ``(n_values, rows, cells)`` table (cached across calls until the
        array is re-programmed) and each query block is assembled by
        value-select instead of re-evaluating the device physics.
        Results are bit-identical to :meth:`search_k_batch` / looped
        :meth:`search_k` on the equivalent expanded matrices.

        Parameters
        ----------
        sl_values / dl_values:
            (n_values, physical_cols) bias alphabet: row ``v`` holds the
            column biases a query element with value ``v`` applies to
            its cell's ``cell_fanout`` columns.
        value_index:
            (n_queries, cells) integer alphabet row per query per
            encoded element.
        k / active_rows:
            As in :meth:`search_k_batch`.
        """
        sl_values, dl_values, value_index = self._validate_value_bias(
            sl_values, dl_values, value_index
        )
        active = self._validate_competition(active_rows, k)
        return self._finish(
            *self._score_values(sl_values, dl_values, value_index),
            functools.partial(
                self._first_query_dl, dl_values, value_index[:1].copy()
            ),
            active,
            k,
        )

    def search_batch(
        self,
        sl_matrix: np.ndarray,
        dl_matrix: np.ndarray,
        active_rows: Optional[np.ndarray] = None,
    ) -> BatchSearchResult:
        """Vectorised nearest-neighbor search over a batch of arbitrary
        bias vectors: the ``k = 1`` view of :meth:`search_k_batch`,
        bit-identical to looping serial :meth:`search`."""
        return self.search_k_batch(
            sl_matrix, dl_matrix, 1, active_rows
        ).nearest()

    def search_batch_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
        active_rows: Optional[np.ndarray] = None,
    ) -> BatchSearchResult:
        """Vectorised nearest-neighbor search over the bias alphabet:
        the ``k = 1`` view of :meth:`search_k_batch_values`."""
        return self.search_k_batch_values(
            sl_values, dl_values, value_index, 1, active_rows
        ).nearest()

    def readout_batch_values(
        self,
        sl_values: np.ndarray,
        dl_values: np.ndarray,
        value_index: np.ndarray,
    ) -> np.ndarray:
        """(n_queries, rows) unit-current readings over the bias
        alphabet — :meth:`search_k_batch_values` without the select.

        The shortlist/coarse-tier primitive: a caller that ranks rows
        itself (e.g. merging readouts across banks) only needs the
        match-line currents, so the LTA decision and the per-query
        timing/energy accounting of a full search would be pure
        overhead.  The readings are exactly the ``row_units`` the full
        search returns — same scorer.
        """
        sl_values, dl_values, value_index = self._validate_value_bias(
            sl_values, dl_values, value_index
        )
        raw, quantum = self._score_values(sl_values, dl_values, value_index)
        return raw * quantum / self.tech.cell.unit_current

    def search_k(
        self,
        sl_voltages: Sequence[float],
        dl_multiples: Sequence[int],
        k: int,
    ) -> list[SearchResult]:
        """Iterative k-nearest search: mask each winner and re-decide."""
        if not 1 <= k <= self.rows:
            raise ValueError(f"k={k} outside [1, {self.rows}]")
        active = np.ones(self.rows, dtype=bool)
        results = []
        for _ in range(k):
            result = self.search(sl_voltages, dl_multiples, active)
            results.append(result)
            active[result.winner] = False
        return results
