"""Post-processing of the Feasible Region into voltage configurations.

Paper Fig. 5: given a feasible set of FeFET currents, derive for every
FeFET (i) the stored threshold level per stored value, (ii) the search gate
level per search value, (iii) the drain (Vds) multiple per search value.

The paper describes the assignment through ON/OFF counting: "the numbers
of ON states in all sto columns are counted and sorted. The sto columns
with higher ranks correspond to lower Vth voltages", and symmetrically for
search rows via OFF counts.  Because the constraint-3 chain property makes
the column ON-sets totally ordered by inclusion, counting and chain-rank
coincide; we implement the chain-rank construction (and assert the
count-sort equivalence in the test suite) because it lets us *prove* the
resulting digital rule

    ``FeFET ON  <=>  store_level < search_level``

reproduces the solution exactly — the rule Table II states as "The FeFET
is ON only if Vti < Vsj, where i < j".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..devices.tech import FeFETParams
from .dm import DistanceMatrix
from .feasibility import CellSolution


class EncodingError(RuntimeError):
    """Raised when a solution cannot be turned into a consistent level
    assignment (cannot happen for constraint-3-feasible solutions; kept as
    an internal sanity barrier)."""


@dataclass(frozen=True)
class FeFETEncoding:
    """Level assignment of a single FeFET within the cell.

    Attributes
    ----------
    store_levels:
        Per stored value: threshold level index (0 = lowest Vth).
    search_levels:
        Per search value: gate level index (0 = lowest Vs, activates
        nothing).
    vds_multiples:
        Per search value: integer drain level (>= 1; rows where the FeFET
        can never conduct keep the minimum level, as Table II does).
    """

    store_levels: Tuple[int, ...]
    search_levels: Tuple[int, ...]
    vds_multiples: Tuple[int, ...]

    def is_on(self, search_value: int, stored_value: int) -> bool:
        """The digital conduction rule: ``Vt_i < Vs_j <=> i < j``."""
        return (
            self.store_levels[stored_value]
            < self.search_levels[search_value]
        )

    def current(self, search_value: int, stored_value: int) -> int:
        """Unit-current contribution under the level rule."""
        if self.is_on(search_value, stored_value):
            return self.vds_multiples[search_value]
        return 0


@dataclass(frozen=True)
class CellEncoding:
    """Complete voltage encoding of one AM cell (all K FeFETs).

    This is the reconfiguration artifact: programming an array for a
    distance function means writing these store levels and driving these
    search levels / drain multiples.
    """

    fefets: Tuple[FeFETEncoding, ...]
    n_search: int
    n_stored: int
    current_range: Tuple[int, ...]
    metric_name: str = ""
    bits: int = 0

    @property
    def k(self) -> int:
        """FeFETs per cell."""
        return len(self.fefets)

    @property
    def n_vth_levels_required(self) -> int:
        """Distinct threshold rungs the device ladder must provide."""
        return 1 + max(
            max(f.store_levels) for f in self.fefets
        )

    @property
    def n_search_levels_required(self) -> int:
        """Distinct search rungs the DAC must provide."""
        return 1 + max(
            max(f.search_levels) for f in self.fefets
        )

    @cached_property
    def n_ladder_levels(self) -> int:
        """Rungs of the shared Vt/Vs ladder (max of the two requirements).

        Cached: ``_check_ladder`` reads it on every per-value voltage
        lookup, and the fields it scans never change."""
        return max(
            self.n_vth_levels_required, self.n_search_levels_required
        )

    @property
    def max_vds_multiple(self) -> int:
        return max(max(f.vds_multiples) for f in self.fefets)

    # ------------------------------------------------------------------
    # Digital views
    # ------------------------------------------------------------------
    def store_levels_for(self, stored_value: int) -> Tuple[int, ...]:
        """Per-FeFET threshold levels programming ``stored_value``."""
        return tuple(f.store_levels[stored_value] for f in self.fefets)

    def search_config_for(
        self, search_value: int
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(gate levels, drain multiples) applying ``search_value``."""
        levels = tuple(f.search_levels[search_value] for f in self.fefets)
        vds = tuple(f.vds_multiples[search_value] for f in self.fefets)
        return levels, vds

    def cell_current(self, search_value: int, stored_value: int) -> int:
        """Total cell current under the digital rule, unit currents."""
        return sum(
            f.current(search_value, stored_value) for f in self.fefets
        )

    def reconstruct_dm(self) -> np.ndarray:
        """The distance matrix this encoding realises — must equal the
        target DM (round-trip invariant)."""
        return np.array(
            [
                [
                    self.cell_current(s, t)
                    for t in range(self.n_stored)
                ]
                for s in range(self.n_search)
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # Analog views
    # ------------------------------------------------------------------
    def store_voltages_for(
        self, stored_value: int, params: FeFETParams
    ) -> Tuple[float, ...]:
        """Per-FeFET programmed threshold voltages for ``stored_value``."""
        self._check_ladder(params)
        return tuple(
            params.vth_level(lv)
            for lv in self.store_levels_for(stored_value)
        )

    def search_voltages_for(
        self, search_value: int, params: FeFETParams
    ) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
        """Per-FeFET (gate voltages, drain multiples) for a search value."""
        self._check_ladder(params)
        levels, vds = self.search_config_for(search_value)
        return tuple(params.search_voltage(lv) for lv in levels), vds

    def _check_ladder(self, params: FeFETParams) -> None:
        if params.n_vth_levels < self.n_ladder_levels:
            raise EncodingError(
                f"encoding needs a {self.n_ladder_levels}-level ladder but "
                f"the device provides {params.n_vth_levels}"
            )

    # ------------------------------------------------------------------
    # Serialisation (deploying a solved configuration without re-running
    # the CSP)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serialisable form of the encoding."""
        return {
            "n_search": self.n_search,
            "n_stored": self.n_stored,
            "current_range": list(self.current_range),
            "metric_name": self.metric_name,
            "bits": self.bits,
            "fefets": [
                {
                    "store_levels": list(f.store_levels),
                    "search_levels": list(f.search_levels),
                    "vds_multiples": list(f.vds_multiples),
                }
                for f in self.fefets
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellEncoding":
        """Rebuild an encoding saved with :meth:`to_dict`."""
        fefets = tuple(
            FeFETEncoding(
                store_levels=tuple(f["store_levels"]),
                search_levels=tuple(f["search_levels"]),
                vds_multiples=tuple(f["vds_multiples"]),
            )
            for f in data["fefets"]
        )
        return cls(
            fefets=fefets,
            n_search=int(data["n_search"]),
            n_stored=int(data["n_stored"]),
            current_range=tuple(data["current_range"]),
            metric_name=data.get("metric_name", ""),
            bits=int(data.get("bits", 0)),
        )

    def describe(self) -> str:
        """Render the encoding in the layout of the paper's Table II."""
        lines = []
        k = self.k
        header_store = " ".join(f"Vth,FET{i+1}" for i in range(k))
        header_vg = " ".join(f"Vg,FET{i+1}" for i in range(k))
        header_vds = " ".join(f"Vds,FET{i+1}" for i in range(k))
        lines.append(
            f"{'value':>6} | {header_store} | {header_vg} | {header_vds}"
        )
        width = self.bits or max(1, (self.n_stored - 1).bit_length())
        for v in range(self.n_stored):
            stores = " ".join(
                f"Vt{lv}" + " " * 4 for lv in self.store_levels_for(v)
            )
            if v < self.n_search:
                levels, vds = self.search_config_for(v)
                searches = " ".join(f"Vs{lv}" + " " * 3 for lv in levels)
                drains = " ".join(
                    (f"{m}V" if m > 1 else " V") + " " * 6 for m in vds
                )
            else:
                searches = drains = "-"
            label = format(v, f"0{width}b")
            lines.append(f"{label!r:>6} | {stores} | {searches} | {drains}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fig. 5 post-processing
# ----------------------------------------------------------------------
def encode_fefet(
    solution: CellSolution, fefet: int
) -> FeFETEncoding:
    """Derive one FeFET's level assignment from a feasible solution.

    Chain-rank construction: stored columns are ranked by their ON-set
    (how many search rows activate them — more activations = lower
    threshold); each search row's gate level is one above the highest
    threshold rank it must activate.
    """
    n_search = solution.n_search
    n_stored = solution.n_stored
    masks = solution.fefet_on_masks(fefet)  # per sch, bits over sto

    # Column ON counts: how many search rows turn this FeFET on for each
    # stored value.
    col_counts = [
        sum(masks[s] >> t & 1 for s in range(n_search))
        for t in range(n_stored)
    ]
    # Higher count -> lower Vth level (paper: "The sto columns with higher
    # ranks correspond to lower Vth voltages").
    distinct = sorted(set(col_counts), reverse=True)
    rank_of = {count: rank for rank, count in enumerate(distinct)}
    store_levels = tuple(rank_of[c] for c in col_counts)

    # Search level: one rung above the highest-threshold column the row
    # must activate; rows that activate nothing sit at rung 0.
    search_levels_list: List[int] = []
    for s in range(n_search):
        active = [t for t in range(n_stored) if masks[s] >> t & 1]
        if active:
            search_levels_list.append(
                1 + max(store_levels[t] for t in active)
            )
        else:
            search_levels_list.append(0)
    search_levels = tuple(search_levels_list)

    # Drain multiples: the row magnitude where the FeFET can conduct;
    # minimum legal level elsewhere.
    min_multiple = min(solution.current_range)
    vds = tuple(
        solution.fefet_magnitude(fefet, s)
        if solution.fefet_magnitude(fefet, s) > 0
        else min_multiple
        for s in range(n_search)
    )

    enc = FeFETEncoding(
        store_levels=store_levels,
        search_levels=search_levels,
        vds_multiples=vds,
    )
    # Internal consistency barrier: the digital rule must reproduce the
    # solution's ON/OFF pattern exactly.
    for s in range(n_search):
        for t in range(n_stored):
            want = bool(masks[s] >> t & 1)
            if enc.is_on(s, t) != want:
                raise EncodingError(
                    f"level assignment inconsistent at fefet={fefet}, "
                    f"sch={s}, sto={t}"
                )
    return enc


def encode_cell(
    solution: CellSolution,
    metric_name: str = "",
    bits: int = 0,
) -> CellEncoding:
    """Fig. 5 post-processing for the whole cell."""
    fefets = tuple(
        encode_fefet(solution, i) for i in range(solution.k)
    )
    return CellEncoding(
        fefets=fefets,
        n_search=solution.n_search,
        n_stored=solution.n_stored,
        current_range=solution.current_range,
        metric_name=metric_name,
        bits=bits,
    )


def verify_encoding(
    encoding: CellEncoding, dm: DistanceMatrix
) -> bool:
    """Round-trip invariant: the encoding's digital reconstruction equals
    the target DM."""
    return bool(np.array_equal(encoding.reconstruct_dm(), dm.values))


def best_encoding(
    dm: DistanceMatrix,
    k: int,
    current_range: Sequence[int],
    metric_name: str = "",
    bits: int = 0,
    max_ladder_levels: Optional[int] = None,
    search_limit: Optional[int] = 2000,
) -> Optional[CellEncoding]:
    """Pick the cheapest encoding from the Feasible Region.

    Solutions are scored by (ladder levels, max Vds multiple, total ON
    count) — fewer threshold rungs means an easier device, fewer drain
    rails a simpler selector, fewer ON devices less energy.  The paper's
    Table II choice (3 rungs, 2 drain levels) is the optimum under this
    ordering for the 2-bit Hamming DM.

    ``max_ladder_levels`` additionally rejects encodings the physical
    device cannot provide; ``search_limit`` caps the enumeration for large
    Feasible Regions.
    """
    from .feasibility import iter_solutions

    best: Optional[CellEncoding] = None
    best_score: Optional[Tuple[int, int, int]] = None
    for solution in iter_solutions(dm, k, current_range, limit=search_limit):
        enc = encode_cell(solution, metric_name=metric_name, bits=bits)
        if (
            max_ladder_levels is not None
            and enc.n_ladder_levels > max_ladder_levels
        ):
            continue
        on_total = int(
            sum(
                f.current(s, t) > 0
                for f in enc.fefets
                for s in range(enc.n_search)
                for t in range(enc.n_stored)
            )
        )
        score = (enc.n_ladder_levels, enc.max_vds_multiple, on_total)
        if best_score is None or score < best_score:
            best, best_score = enc, score
    return best


def off_count_search_levels(
    solution: CellSolution, fefet: int
) -> Tuple[int, ...]:
    """The paper's literal search-side recipe: rank rows by OFF counts,
    more OFF states = lower search voltage.  Exposed for the equivalence
    test against the chain-rank construction."""
    n_search = solution.n_search
    n_stored = solution.n_stored
    masks = solution.fefet_on_masks(fefet)
    off_counts = [
        n_stored - bin(masks[s]).count("1") for s in range(n_search)
    ]
    distinct = sorted(set(off_counts), reverse=True)
    rank_of = {count: rank for rank, count in enumerate(distinct)}
    return tuple(rank_of[c] for c in off_counts)
