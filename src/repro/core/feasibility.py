"""Algorithm 1 of the paper: FeReX feasibility detection.

Given a Distance Matrix, a cell size K and the allowed per-FeFET ON
currents CR, decide whether a K-FeFET cell can realise the DM, and produce
the feasible current assignments ("Feasible Region").

Pipeline (paper Alg. 1 + Fig. 4):

1. ``DecomposeDM`` (constraint 1) — every DM element is decomposed into K
   per-FeFET currents from ``{0} | CR`` (:mod:`repro.core.decompose`).
2. **Row backtracking** (constraint 2) — within one search row, FeFET *i*
   either conducts one fixed ON current or is OFF, because its gate and
   drain voltages are set by the search value alone.
   :func:`enumerate_row_assignments` backtracks over the stored values of
   a row, fixing each FeFET's magnitude the first time it turns ON.
3. **AC-3 + cross-row search** (constraint 3) — a FeFET's ON/OFF pattern
   must be realisable as ``Vgs(sch) > Vth(sto)``, which holds iff its
   per-row ON-sets form a chain under inclusion.  Pairwise nestedness is a
   binary constraint between row variables, so AC-3 prunes the row
   domains; a final backtracking pass assembles complete cell solutions.

ON-sets are represented as bitmasks over the stored alphabet, making the
nestedness test two AND operations.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .csp import CSP, Constraint, solve_all
from .decompose import decompose, min_fefets_for
from .dm import DistanceMatrix


@dataclass(frozen=True)
class RowAssignment:
    """Feasible currents of one search row (constraint 2 satisfied).

    Attributes
    ----------
    magnitudes:
        Per-FeFET ON current multiple for this row; 0 when the FeFET never
        turns ON anywhere in the row.
    on_masks:
        Per-FeFET bitmask over stored values: bit ``t`` set means the
        FeFET conducts under stored value ``t``.
    """

    magnitudes: Tuple[int, ...]
    on_masks: Tuple[int, ...]

    def current(self, fefet: int, stored_value: int) -> int:
        """Current of one FeFET under one stored value, in units."""
        if self.on_masks[fefet] >> stored_value & 1:
            return self.magnitudes[fefet]
        return 0

    def row_total(self, stored_value: int, k: int) -> int:
        return sum(self.current(i, stored_value) for i in range(k))


def _nested(mask_a: int, mask_b: int) -> bool:
    """True when one ON-set contains the other (chain condition)."""
    inter = mask_a & mask_b
    return inter == mask_a or inter == mask_b


def rows_compatible(a: RowAssignment, b: RowAssignment) -> bool:
    """Constraint 3 between two rows: every FeFET's ON-sets must nest."""
    return all(
        _nested(ma, mb) for ma, mb in zip(a.on_masks, b.on_masks)
    )


# ----------------------------------------------------------------------
# Stage 2: row enumeration under constraint 2
# ----------------------------------------------------------------------
def enumerate_row_assignments(
    dm_row: Sequence[int],
    k: int,
    current_range: Sequence[int],
) -> List[RowAssignment]:
    """All constraint-1+2-consistent assignments of one search row.

    Backtracks over stored values; the first time FeFET *i* turns ON its
    magnitude is pinned, and later stored values may only reuse that
    magnitude or keep the FeFET OFF (paper Fig. 4(d)).
    """
    cr = tuple(current_range)
    n_stored = len(dm_row)
    per_value = [decompose(v, k, cr) for v in dm_row]
    if any(not options for options in per_value):
        return []

    results: List[RowAssignment] = []
    magnitudes: List[int] = [0] * k  # 0 = not yet ON anywhere
    masks: List[int] = [0] * k

    def rec(t: int) -> None:
        if t == n_stored:
            results.append(
                RowAssignment(tuple(magnitudes), tuple(masks))
            )
            return
        for tup in per_value[t]:
            changed: List[int] = []
            ok = True
            for i, c in enumerate(tup):
                if c == 0:
                    continue
                if magnitudes[i] == 0:
                    magnitudes[i] = c
                    changed.append(i)
                elif magnitudes[i] != c:
                    ok = False
                    break
            if ok:
                for i, c in enumerate(tup):
                    if c:
                        masks[i] |= 1 << t
                rec(t + 1)
                for i, c in enumerate(tup):
                    if c:
                        masks[i] &= ~(1 << t)
            for i in changed:
                magnitudes[i] = 0

    rec(0)
    return results


# ----------------------------------------------------------------------
# Cell solutions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CellSolution:
    """A complete feasible current configuration for one AM cell.

    ``rows[sch]`` is the row assignment realising DM row ``sch``.
    """

    k: int
    current_range: Tuple[int, ...]
    rows: Tuple[RowAssignment, ...]
    n_stored: int

    @property
    def n_search(self) -> int:
        return len(self.rows)

    def current(self, sch: int, sto: int, fefet: int) -> int:
        """``I_{sch,sto,i}`` in unit currents."""
        return self.rows[sch].current(fefet, sto)

    def cell_current(self, sch: int, sto: int) -> int:
        """Total cell current — must equal the DM entry."""
        return self.rows[sch].row_total(sto, self.k)

    def current_matrix(self) -> np.ndarray:
        """(n_search, n_stored) realised distance matrix."""
        return np.array(
            [
                [self.cell_current(s, t) for t in range(self.n_stored)]
                for s in range(self.n_search)
            ],
            dtype=np.int64,
        )

    def fefet_on_masks(self, fefet: int) -> Tuple[int, ...]:
        """Per-search-row ON bitmask of one FeFET."""
        return tuple(row.on_masks[fefet] for row in self.rows)

    def fefet_magnitude(self, fefet: int, sch: int) -> int:
        return self.rows[sch].magnitudes[fefet]

    def verify(self, dm: DistanceMatrix) -> bool:
        """Check the solution against the target DM and all constraints."""
        if not np.array_equal(self.current_matrix(), dm.values):
            return False
        for i in range(self.k):
            masks = self.fefet_on_masks(i)
            for a, b in itertools.combinations(masks, 2):
                if not _nested(a, b):
                    return False
        return True


@dataclass
class FeasibilityResult:
    """Outcome of Algorithm 1 for one (DM, K, CR) instance."""

    feasible: bool
    dm: DistanceMatrix
    k: int
    current_range: Tuple[int, ...]
    solution: Optional[CellSolution] = None
    #: Row-domain sizes after row enumeration (pre AC-3).
    row_domain_sizes: List[int] = field(default_factory=list)
    #: Row-domain sizes after AC-3 pruning.
    pruned_domain_sizes: List[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.feasible


# ----------------------------------------------------------------------
# Vectorised AC-3 over ON-mask arrays
# ----------------------------------------------------------------------
# Cross-row compatibility (constraint 3) depends only on the ON-masks of a
# row assignment, never on its magnitudes.  The solver therefore dedupes
# each row domain by mask tuple, keeps one representative assignment per
# mask tuple, and runs AC-3 / backtracking on (n, k) integer mask arrays
# with numpy — the semantics of the paper's AC-3 step, engineered to
# survive the 60k-assignment domains of wide-alphabet DMs.


def _supported(a_masks: np.ndarray, b_masks: np.ndarray) -> np.ndarray:
    """(na,) bool: which rows of ``a_masks`` have a nested partner in
    ``b_masks`` (chunked to bound peak memory)."""
    na, k = a_masks.shape
    nb = b_masks.shape[0]
    out = np.zeros(na, dtype=bool)
    if nb == 0:
        return out
    chunk = max(1, 8_000_000 // max(1, nb * k))
    b = b_masks[None, :, :]
    for start in range(0, na, chunk):
        a = a_masks[start : start + chunk][:, None, :]
        inter = a & b
        nested = (inter == a) | (inter == b)
        out[start : start + chunk] = nested.all(axis=2).any(axis=1)
    return out


def _compatible_pairs(
    a_masks: np.ndarray, b_masks: np.ndarray
) -> np.ndarray:
    """(na, nb) bool compatibility table (used by the final search)."""
    na, k = a_masks.shape
    nb = b_masks.shape[0]
    out = np.zeros((na, nb), dtype=bool)
    if nb == 0:
        return out
    chunk = max(1, 8_000_000 // max(1, nb * k))
    b = b_masks[None, :, :]
    for start in range(0, na, chunk):
        a = a_masks[start : start + chunk][:, None, :]
        inter = a & b
        nested = (inter == a) | (inter == b)
        out[start : start + chunk] = nested.all(axis=2)
    return out


def _ac3_mask_domains(mask_domains: List[np.ndarray]) -> List[np.ndarray]:
    """AC-3 on the deduped mask domains.

    Returns per-row boolean keep-vectors; any all-False vector means the
    instance is infeasible.
    """
    n_rows = len(mask_domains)
    keep = [np.ones(len(d), dtype=bool) for d in mask_domains]
    queue = deque(
        (x, y)
        for x in range(n_rows)
        for y in range(n_rows)
        if x != y
    )
    while queue:
        x, y = queue.popleft()
        if not keep[y].any():
            keep[x][:] = False
            return keep
        active_x = np.flatnonzero(keep[x])
        if len(active_x) == 0:
            return keep
        supported = _supported(
            mask_domains[x][active_x], mask_domains[y][keep[y]]
        )
        if not supported.all():
            keep[x][active_x[~supported]] = False
            if not keep[x].any():
                return keep
            for z in range(n_rows):
                if z != x and z != y:
                    queue.append((z, x))
    return keep


def _search_mask_domains(
    mask_domains: List[np.ndarray],
    keep: List[np.ndarray],
) -> Optional[List[int]]:
    """Backtracking over the pruned mask domains; returns one index per
    row (into the deduped domain) or None."""
    n_rows = len(mask_domains)
    candidates = [np.flatnonzero(kp) for kp in keep]
    if any(len(c) == 0 for c in candidates):
        return None
    order = sorted(range(n_rows), key=lambda r: len(candidates[r]))
    chosen: List[Optional[int]] = [None] * n_rows

    def rec(depth: int, live: List[np.ndarray]) -> bool:
        if depth == n_rows:
            return True
        row = order[depth]
        for idx in live[row]:
            chosen[row] = int(idx)
            ok = True
            new_live = list(live)
            my_mask = mask_domains[row][idx : idx + 1]
            for later in order[depth + 1 :]:
                compat = _compatible_pairs(
                    mask_domains[later][new_live[later]], my_mask
                )[:, 0]
                filtered = new_live[later][compat]
                if len(filtered) == 0:
                    ok = False
                    break
                new_live[later] = filtered
            if ok and rec(depth + 1, new_live):
                return True
        chosen[row] = None
        return False

    if rec(0, candidates):
        return [int(c) for c in chosen]  # type: ignore[arg-type]
    return None


def check_feasibility(
    dm: DistanceMatrix,
    k: int,
    current_range: Sequence[int],
    run_ac3: bool = True,
) -> FeasibilityResult:
    """Algorithm 1: decide feasibility and return one solution if any.

    ``run_ac3=False`` skips arc pruning and goes straight to backtracking
    (useful for measuring how much AC-3 helps — an ablation bench).

    ``row_domain_sizes`` reports the raw per-row assignment counts;
    ``pruned_domain_sizes`` reports mask-deduped counts surviving AC-3
    (compatibility depends only on ON-masks, so the solver prunes over
    deduplicated mask tuples).
    """
    cr = tuple(current_range)
    result = FeasibilityResult(
        feasible=False, dm=dm, k=k, current_range=cr
    )

    domains: List[List[RowAssignment]] = []
    for sch in range(dm.n_search):
        assignments = enumerate_row_assignments(dm.row(sch), k, cr)
        if not assignments:
            return result
        domains.append(assignments)
    result.row_domain_sizes = [len(d) for d in domains]

    # Dedupe by mask tuple, keeping one representative assignment each.
    mask_domains: List[np.ndarray] = []
    representatives: List[List[int]] = []
    for assignments in domains:
        seen: Dict[Tuple[int, ...], int] = {}
        reps: List[int] = []
        for idx, a in enumerate(assignments):
            if a.on_masks not in seen:
                seen[a.on_masks] = len(reps)
                reps.append(idx)
        representatives.append(reps)
        mask_domains.append(
            np.array(
                [assignments[i].on_masks for i in reps], dtype=np.int64
            ).reshape(len(reps), k)
        )

    if run_ac3:
        keep = _ac3_mask_domains(mask_domains)
    else:
        keep = [np.ones(len(d), dtype=bool) for d in mask_domains]
    result.pruned_domain_sizes = [int(kp.sum()) for kp in keep]
    if any(not kp.any() for kp in keep):
        return result

    chosen = _search_mask_domains(mask_domains, keep)
    if chosen is None:
        return result

    rows = tuple(
        domains[s][representatives[s][chosen[s]]]
        for s in range(dm.n_search)
    )
    result.solution = CellSolution(
        k=k, current_range=cr, rows=rows, n_stored=dm.n_stored
    )
    result.feasible = True
    return result


def iter_solutions(
    dm: DistanceMatrix,
    k: int,
    current_range: Sequence[int],
    limit: Optional[int] = None,
) -> Iterator[CellSolution]:
    """Enumerate the full Feasible Region (paper: "If the objective is to
    obtain all possible current sets, AC3 can be replaced by
    backtracking").

    The vectorised mask-level AC-3 pre-prunes the raw domains, then the
    generic backtracking enumerates complete solutions (magnitudes
    included) from what survives.
    """
    cr = tuple(current_range)
    domains: List[List[RowAssignment]] = []
    for sch in range(dm.n_search):
        assignments = enumerate_row_assignments(dm.row(sch), k, cr)
        if not assignments:
            return
        domains.append(assignments)

    # Vectorised pre-prune on deduped masks, mapped back to assignments.
    mask_domains = []
    for assignments in domains:
        unique = sorted({a.on_masks for a in assignments})
        mask_domains.append(
            np.array(unique, dtype=np.int64).reshape(len(unique), k)
        )
    keep = _ac3_mask_domains(mask_domains)
    pruned: Dict[int, List[RowAssignment]] = {}
    for s, assignments in enumerate(domains):
        kept_masks = {
            tuple(m) for m in mask_domains[s][keep[s]].tolist()
        }
        pruned[s] = [
            a for a in assignments if a.on_masks in kept_masks
        ]
        if not pruned[s]:
            return

    csp = CSP(
        variables=list(range(dm.n_search)),
        domains=pruned,
        constraints=[],
    )
    for a, b in itertools.combinations(range(dm.n_search), 2):
        csp.add_constraint(
            Constraint(
                scope=(a, b),
                predicate=rows_compatible,
                name=f"nested[{a},{b}]",
            )
        )
    for assignment in solve_all(csp, limit=limit):
        rows = tuple(assignment[s] for s in range(dm.n_search))
        yield CellSolution(
            k=k, current_range=cr, rows=rows, n_stored=dm.n_stored
        )


def find_min_cell(
    dm: DistanceMatrix,
    current_range: Sequence[int],
    max_k: int = 8,
) -> FeasibilityResult:
    """Search the smallest cell size, mirroring the paper's flow: "FeReX
    iteratively increases the number of FeFETs within a cell" until the
    DM becomes feasible (K=3 for the 2-bit Hamming DM of Table II).
    """
    cr = tuple(current_range)
    start = max(
        min_fefets_for(int(dm.max_value), cr),
        1,
    )
    last = None
    for k in range(start, max_k + 1):
        last = check_feasibility(dm, k, cr)
        if last.feasible:
            return last
    if last is None:
        last = FeasibilityResult(
            feasible=False, dm=dm, k=max_k, current_range=cr
        )
    return last
