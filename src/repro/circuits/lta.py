"""Current-domain loser-take-all (LTA) circuit.

The LTA compares the aggregated ScL currents of all rows and flags the row
with the *minimum* current — which, after the FeReX encoding, is the stored
vector with the smallest distance to the query (paper Sec. III-A).  It is
the dual of the classic winner-take-all used by CoSiME
[Liu, ICCAD 2022]; the paper defers circuit details to that reference.

Behavioural model
-----------------

* **Decision**: the electrical winner is the row with the smallest
  ``I_row + offset_row`` where ``offset_row`` is a static input-referred
  mismatch sampled per comparator branch.  An ideal LTA is the plain
  argmin.
* **Resolution limit**: two rows closer than ``resolution_current`` are
  electrically ambiguous; the model resolves them by the (offset-adjusted)
  ordering, so ties break randomly through the sampled mismatch, exactly
  like silicon.
* **Delay**: a losing branch must charge its competition node by the
  resolution swing before the feedback latches, so
  ``t = C_node * V_swing / max(dI, resolution)`` with ``dI`` the
  winner/runner-up current gap; a weak gap means a slow decision, the
  classic WTA metastability behaviour.  A logarithmic fan-in term models
  the shared-rail settling of wide arrays.
* **Energy**: static bias per competing row during the decision window
  plus a fixed latch term (paper Fig. 6(a): LTA power "grows
  insignificantly as the number of rows increases" — amortised per bit).
* **Top-k**: masking a winner to ``+inf`` and re-deciding
  (:meth:`LoserTakeAll.decide_k`) emits rows in stable (value, row)
  order, so a batch reads its ``k`` winners off :func:`stable_top_k`
  (or, for exact integer scores, :func:`integer_top_k`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..devices.tech import LTAParams


def stable_top_k(values: np.ndarray, k: int) -> np.ndarray:
    """Per-row column indices of the ``k`` smallest entries of an
    (n, m) array in (value, column) order — exactly
    ``np.argsort(values, axis=1, kind="stable")[:, :k]`` without sorting
    whole rows.

    An ``argpartition`` alone breaks value ties arbitrarily; the
    boundary rule below keeps every column strictly inside the k-th
    value plus the *lowest-column* ties at it, then orders the surviving
    ``k`` entries with one small stable sort.
    """
    n, m = values.shape
    if not 0 < k < m:
        return np.argsort(values, axis=1, kind="stable")[:, :k]
    boundary = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    strict = values < boundary
    at_boundary = values == boundary
    quota = k - strict.sum(axis=1, keepdims=True)
    # int32 accumulator: cumsum on a bool block otherwise promotes to
    # int64 and the widening dominates the whole selection.
    tie_rank = np.cumsum(at_boundary, axis=1, dtype=np.int32)
    keep = strict | (at_boundary & (tie_rank <= quota))
    idx = np.nonzero(keep)[1].reshape(n, k)  # column-ascending per row
    order = np.argsort(
        np.take_along_axis(values, idx, axis=1), axis=1, kind="stable"
    )
    return np.take_along_axis(idx, order, axis=1)


#: Columns one :func:`integer_top_k` key block spans: 10 column bits
#: beside the < 2**52 magnitude of every exact kernel score
#: (:func:`repro.core.kernel.select_accumulator` keeps
#: ``2 x cells x max |entry|`` below ``2**53``) fill at most 62 bits.
SELECT_BLOCK = 1024

_KEY_MIN, _KEY_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def integer_top_k(
    scores: np.ndarray, k: int, active: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-row column indices of the ``k`` smallest active entries of an
    (n, m) int64 score block in (score, column) order — exactly
    ``np.argsort(np.where(active, scores, inf), axis=1,
    kind="stable")[:, :k]`` for ``1 <= k <=`` active columns and
    ``|score| < 2**52``.

    The columns split into blocks of at most :data:`SELECT_BLOCK`, and
    each entry becomes the int64 key ``score << b | column`` with ``b``
    bits per column index within its block.  A block's keys are unique
    and their plain order is the stable (score, column) order, so one
    ``np.partition`` selects with no tie rule; columns ``active`` masks
    out key to the int64 maximum.  One block is the whole answer after
    a ``k``-wide sort.  Wider blocks nominate their ``k`` best each —
    the paper's LTA decides per array, and a multi-bank CAM composes
    its banks' winners — and one (score, column) lexsort orders the
    ``(n, k x blocks)`` nominees, masked keys last.
    """
    n, m = scores.shape
    blocks = -(-m // SELECT_BLOCK)
    width = -(-m // blocks)
    bits = (width - 1).bit_length()
    low = (1 << bits) - 1
    key = np.empty((n, blocks * width), dtype=np.int64)
    np.left_shift(scores, bits, out=key[:, :m])
    nominees = key.reshape(n, blocks, width)
    nominees += np.arange(width)
    # Equal blocks: the fewer than ``blocks`` padding columns key to
    # the maximum, like masked ones.
    key[:, m:] = _KEY_MAX
    if active is not None and not active.all():
        dead = np.where(active, _KEY_MIN, _KEY_MAX)
        np.maximum(key[:, :m], dead, out=key[:, :m])
    # ``key`` is scratch: partition it in place, not a copy.
    if blocks == 1:
        key.partition(k - 1, axis=1)
        return np.sort(key[:, :k], axis=1) & low
    take = min(k, width)
    if take < width:
        nominees.partition(take - 1, axis=2)
        nominees = nominees[:, :, :take]
    shape = (n, blocks * take)
    columns = (nominees & low) + width * np.arange(blocks)[:, None]
    columns = columns.reshape(shape)
    order = np.lexsort((columns, (nominees >> bits).reshape(shape)))
    return columns[np.arange(n)[:, None], order[:, :k]]


@dataclass(frozen=True)
class LTADecision:
    """Outcome of one loser-take-all comparison."""

    #: Index of the row the circuit flags as the minimum.
    winner: int
    #: Electrical current gap between winner and runner-up, amps.
    margin: float
    #: Decision delay, seconds.
    delay: float
    #: Energy consumed by the LTA during the decision, joules.
    energy: float

    def __int__(self) -> int:
        return self.winner


@dataclass(frozen=True)
class BatchLTADecision:
    """Outcome of one loser-take-all comparison per query in a batch."""

    #: (n_queries,) winner row index per comparison.
    winners: np.ndarray
    #: (n_queries,) winner/runner-up current gap, amps.
    margins: np.ndarray
    #: (n_queries,) decision delay, seconds.
    delays: np.ndarray
    #: (n_queries,) decision energy, joules.
    energies: np.ndarray

    @property
    def n_queries(self) -> int:
        return len(self.winners)


class LoserTakeAll:
    """Loser-take-all comparator bank over ``n_rows`` inputs."""

    def __init__(
        self,
        n_rows: int,
        params: Optional[LTAParams] = None,
        offsets: Optional[np.ndarray] = None,
    ):
        if n_rows < 1:
            raise ValueError("LTA needs at least one row")
        self.n_rows = n_rows
        self.params = params or LTAParams()
        if offsets is None:
            offsets = np.zeros(n_rows)
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != (n_rows,):
            raise ValueError(
                f"offsets shape {offsets.shape} != ({n_rows},)"
            )
        self.offsets = offsets

    @property
    def resolution_current(self) -> float:
        """Smallest current gap the comparator resolves deterministically.

        Tied to the offset sigma the branch transistors exhibit; we use the
        shared-rail-current-scaled constant from the tech parameters.
        """
        return self.params.bias_current_shared * 1.0e-3

    def decision_delay(self, margin: float) -> float:
        """Decision latency for a given winner/runner-up gap, seconds.

        A branch term inversely proportional to the resolvable gap plus a
        logarithmic fan-in term for the shared competition rail.
        """
        return float(
            self.decision_delay_batch(np.array([margin], dtype=float))[0]
        )

    def decision_delay_batch(self, margins: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decision_delay` over a (n,) margin array."""
        p = self.params
        margins = np.asarray(margins, dtype=float)
        gap = np.maximum(margins, self.resolution_current)
        t_branch = p.node_capacitance * p.resolution_swing / gap
        t_fanin = (
            p.node_capacitance
            * p.resolution_swing
            / p.bias_current_shared
            * math.log2(max(self.n_rows, 2))
        )
        return t_branch + t_fanin

    def decision_energy(self, delay: float) -> float:
        """Energy of one decision lasting ``delay`` seconds, joules.

        Dominated by the shared competition rail; the per-row term is
        small, which is why LTA power is largely amortised as the array
        grows.
        """
        return float(
            self.decision_energy_batch(np.array([delay], dtype=float))[0]
        )

    def decision_energy_batch(self, delays: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`decision_energy` over a (n,) delay array."""
        p = self.params
        delays = np.asarray(delays, dtype=float)
        bias = (
            p.bias_current_shared
            + p.bias_current_per_row * self.n_rows
        )
        return bias * p.supply_voltage * delays + p.fixed_energy

    def decide(self, row_currents: Sequence[float]) -> LTADecision:
        """Run one LTA decision over the row currents (amps).

        Routed through :meth:`decide_batch` on a one-query batch, so
        serial and batch searches share a single decision kernel and are
        bit-identical by construction.
        """
        currents = np.asarray(row_currents, dtype=float)
        if currents.shape != (self.n_rows,):
            raise ValueError(
                f"expected {self.n_rows} row currents, got {currents.shape}"
            )
        batch = self.decide_batch(currents[None, :])
        return LTADecision(
            winner=int(batch.winners[0]),
            margin=float(batch.margins[0]),
            delay=float(batch.delays[0]),
            energy=float(batch.energies[0]),
        )

    def decide_batch(self, current_matrix: np.ndarray) -> BatchLTADecision:
        """Vectorised LTA decisions over a (n_queries, n_rows) batch.

        Each row of ``current_matrix`` is one independent comparison —
        the array is time-multiplexed over the batch, so nothing is
        shared between queries.  Semantics per query are exactly those of
        :meth:`decide` (offset-adjusted stable ordering); :meth:`decide`
        itself delegates here.
        """
        currents = np.asarray(current_matrix, dtype=float)
        if currents.ndim != 2 or currents.shape[1] != self.n_rows:
            raise ValueError(
                f"expected (n, {self.n_rows}) current matrix, got "
                f"{currents.shape}"
            )
        n_queries = currents.shape[0]
        effective = currents + self.offsets[None, :]
        if self.n_rows == 1:
            winners = np.zeros(n_queries, dtype=int)
            margins = np.full(n_queries, np.inf)
        else:
            order = np.argsort(effective, axis=1, kind="stable")
            winners = order[:, 0]
            margins = np.take_along_axis(
                effective, order[:, 1:2], axis=1
            )[:, 0] - np.take_along_axis(effective, order[:, 0:1], axis=1)[:, 0]

        delays = self.decision_delay_batch(margins)
        energies = self.decision_energy_batch(delays)
        return BatchLTADecision(
            winners=winners,
            margins=margins,
            delays=delays,
            energies=energies,
        )

    def decide_k(
        self, row_currents: Sequence[float], k: int
    ) -> list[LTADecision]:
        """Iterative top-k: run the LTA, mask the winner, repeat.

        This is how FeReX serves k-nearest-neighbor queries with k > 1:
        after each decision the winning row is disabled (its interface
        MUX disconnects the ScL) and the comparison reruns.
        """
        if not 1 <= k <= self.n_rows:
            raise ValueError(f"k={k} outside [1, {self.n_rows}]")
        currents = np.asarray(row_currents, dtype=float).copy()
        decisions = []
        for _ in range(k):
            decision = self.decide(currents)
            decisions.append(decision)
            currents[decision.winner] = np.inf
        return decisions
