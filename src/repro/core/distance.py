"""Distance metrics over b-bit integer alphabets.

FeReX's reconfigurability claim is that one array supports **Hamming,
Manhattan and Euclidean** similarity search (paper Table I, "HD/L1/L2").
A distance metric here is an integer-valued function on pairs of b-bit
values; vector distances are per-element sums, which is exactly what the
crossbar computes when each element's cell contributes its DM entry to the
shared source line.

Note on Euclidean: the per-element quantity must be integral for the
current-domain encoding, so the engine uses the *squared* difference; the
row sum is then the squared L2 distance, whose argmin is the L2 argmin.
This matches how the referenced Euclidean AM designs (e.g. [Kazemi,
Sci. Rep. 2022]) realise L2 search.

The registry is open: new metrics (the paper's conclusion calls for
"broader ranges of emerging applications") are added with
:func:`register_metric`.

:meth:`DistanceMetric.pairwise` is the one exact software scorer: the
reference hardware winners are validated against, the exact and GPU
index backends, the HDC software path and
:meth:`repro.core.FeReX.software_distances` all score through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

#: Element budget of one :meth:`DistanceMetric.pairwise` block: the
#: (queries, stored, dims) broadcast is tiled on both row axes so no
#: temporary holds more elements than this.
PAIRWISE_BLOCK_ELEMENTS = 1 << 22


def code_dtype(bits: int) -> np.dtype:
    """The dtype every ``bits``-wide code mirror below the index is
    held in: the narrowest signed integer in which a squared
    per-element difference (the widest intermediate any closed-form
    metric produces) still fits — the condition under which
    :meth:`DistanceMetric.pairwise` and :meth:`DistanceMetric.rowwise`
    compute on narrow blocks without widening them.  A code itself
    (``< 2**bits``) then never wraps.
    """
    for dtype in (np.int8, np.int16, np.int32):
        if (1 << (2 * bits)) <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _check_range(values: np.ndarray, bits: int, what: str) -> None:
    hi = 1 << bits
    if int(values.min(initial=0)) < 0 or int(values.max(initial=0)) >= hi:
        raise ValueError(f"{what} values outside [0, {hi})")


@dataclass(frozen=True)
class DistanceMetric:
    """An integer elementwise distance on b-bit values.

    Attributes
    ----------
    name:
        Registry key ("hamming", "manhattan", ...).
    element_fn:
        ``f(search_value, stored_value, bits) -> int`` distance of one
        element pair.
    monotone_alias:
        Name of the mathematical distance this realises after the
        vector-level sum (for documentation: "euclidean" sums squared
        differences, hence "squared L2").
    """

    name: str
    element_fn: Callable[[int, int, int], int]
    monotone_alias: str = ""

    def element(self, search_value: int, stored_value: int, bits: int) -> int:
        """Distance contribution of one element pair."""
        _check_value(search_value, bits)
        _check_value(stored_value, bits)
        return self.element_fn(search_value, stored_value, bits)

    def vector(
        self,
        query: Iterable[int],
        stored: Iterable[int],
        bits: int,
    ) -> int:
        """Vector distance: per-element sum (what a FeReX row current is)."""
        query = list(query)
        stored = list(stored)
        if len(query) != len(stored):
            raise ValueError(
                f"query dims {len(query)} != stored dims {len(stored)}"
            )
        return sum(
            self.element(q, s, bits) for q, s in zip(query, stored)
        )

    def pairwise(
        self, queries: np.ndarray, stored: np.ndarray, bits: int
    ) -> np.ndarray:
        """(n_queries, n_stored) int64 distance table — the one exact
        software scorer.

        The software reference the hardware results are validated against
        (and the baseline for accuracy comparisons).  Both sides are
        range-checked first, so an out-of-range value raises instead of
        wrapping, then cast to :func:`code_dtype` and scored in blocks
        tiled on both row axes: no temporary exceeds
        :data:`PAIRWISE_BLOCK_ELEMENTS`, whatever the table size.  Sums
        accumulate in int64.
        """
        queries = np.asarray(queries)
        stored = np.asarray(stored)
        if queries.ndim != 2 or stored.ndim != 2:
            raise ValueError("expected 2-D (n, dims) arrays")
        if queries.shape[1] != stored.shape[1]:
            raise ValueError("dimension mismatch between queries and stored")
        queries = _codes(queries, bits, "query")
        stored = _codes(stored, bits, "stored")
        n, n_stored = len(queries), len(stored)
        dims = max(1, queries.shape[1])
        step_s = max(1, min(n_stored, PAIRWISE_BLOCK_ELEMENTS // dims))
        step_q = max(1, PAIRWISE_BLOCK_ELEMENTS // (step_s * dims))
        out = np.empty((n, n_stored), dtype=np.int64)
        for lo in range(0, n, step_q):
            q = queries[lo : lo + step_q, None, :]
            for so in range(0, n_stored, step_s):
                block = self._bulk_sum(q, stored[None, so : so + step_s], bits)
                if block is None:
                    # No closed form: the element function, pair by pair.
                    return np.array(
                        [
                            [self.vector(a, b, bits) for b in stored.tolist()]
                            for a in queries.tolist()
                        ],
                        dtype=np.int64,
                    ).reshape(n, n_stored)
                out[lo : lo + step_q, so : so + step_s] = block
        return out

    def rowwise(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        bits: int,
        validate: bool = True,
    ) -> np.ndarray:
        """(n, C) distances of each query row to its *own* candidate set.

        The rescore kernel of tiered (coarse-to-fine) search: a coarse
        pass nominates ``C`` candidates per query, so the fine pass
        needs each query's distance to a *different* stored subset —
        ``candidates`` is (n, C, dims) gathered per query, not the
        (n_stored, dims) cross table :meth:`pairwise` prices.

        ``validate=False`` skips the range scans over both blocks —
        they cost a couple of extra full passes over the candidate
        tensor, which matters on the tiered hot path where every input
        was already validated upstream (the index checked the queries,
        and candidates are gathered from its own add-validated store).
        """
        queries = np.asarray(queries)
        candidates = np.asarray(candidates)
        if (
            queries.dtype != candidates.dtype
            or not np.issubdtype(queries.dtype, np.signedinteger)
            or queries.dtype.itemsize < code_dtype(bits).itemsize
        ):
            # Matching signed dtypes at least :func:`code_dtype` wide
            # pass through untouched (the tiered rescore gathers narrow
            # blocks; widening them costs more than the arithmetic),
            # everything else goes to int64.  Sums still accumulate in
            # int64.
            queries = queries.astype(np.int64, copy=False)
            candidates = candidates.astype(np.int64, copy=False)
        if queries.ndim != 2 or candidates.ndim != 3:
            raise ValueError(
                "expected (n, dims) queries and (n, C, dims) candidates"
            )
        if (
            candidates.shape[0] != queries.shape[0]
            or candidates.shape[2] != queries.shape[1]
        ):
            raise ValueError(
                f"candidate block {candidates.shape} does not align "
                f"with queries {queries.shape}"
            )
        if validate:
            _check_range(queries, bits, "query")
            _check_range(candidates, bits, "candidate")
        q = queries[:, None, :]
        fast = self._bulk_sum(q, candidates, bits)
        if fast is not None:
            return fast
        n, c = candidates.shape[:2]
        out = np.zeros((n, c), dtype=np.int64)
        for i in range(n):
            for j in range(c):
                out[i, j] = self.vector(queries[i], candidates[i, j], bits)
        return out

    def _bulk_sum(self, q: np.ndarray, s: np.ndarray, bits: int):
        """Vectorised elementwise-sum kernel over broadcastable integer
        blocks (``None`` when the metric has no closed numpy form and
        the caller must fall back to :meth:`vector` loops)."""
        if self.name == "hamming":
            diff = np.bitwise_xor(q, s)
            total = np.zeros(
                np.broadcast_shapes(q.shape, s.shape)[:-1], dtype=np.int64
            )
            for b in range(bits):
                # Codes are non-negative and < 2**bits: bit 0 needs no
                # shift and the top bit no mask (1-bit: ``diff`` itself).
                bit = diff >> b if b else diff
                if b < bits - 1:
                    bit = bit & 1
                total += bit.sum(axis=-1, dtype=np.int64)
            return total
        if self.name == "manhattan":
            return np.abs(q - s).sum(axis=-1, dtype=np.int64)
        if self.name == "euclidean":
            d = q - s
            return (d * d).sum(axis=-1, dtype=np.int64)
        return None


@lru_cache(maxsize=8)
def metric_element_lut(metric: DistanceMetric, bits: int) -> np.ndarray:
    """(n_values, n_values) per-element distance table of ``metric``:
    entry ``[q, s]`` is ``metric.element(q, s, bits)``.  The values of a
    :meth:`repro.core.DistanceMatrix.from_metric` DM and the LUT the
    routing centroid kernel gathers from.  ``4**bits`` Python calls, so
    it is read-only and built once per ``(metric, bits)`` (the 8 most
    recent pairs are kept: at 10 bits a table is 8 MiB)."""
    values = range(1 << bits)
    table = np.array(
        [[metric.element(q, s, bits) for s in values] for q in values],
        dtype=np.int64,
    )
    table.flags.writeable = False
    return table


def _codes(values: np.ndarray, bits: int, what: str) -> np.ndarray:
    """``values`` range-checked, then held in :func:`code_dtype` — the
    check comes first, so an out-of-range value raises instead of
    wrapping.  Non-integer input converts to int64 before the check."""
    if values.dtype.kind not in "biu":
        values = values.astype(np.int64)
    _check_range(values, bits, what)
    return values.astype(code_dtype(bits), copy=False)


def _check_value(value: int, bits: int) -> None:
    if bits < 1:
        raise ValueError("bits must be >= 1")
    if not 0 <= value < (1 << bits):
        raise ValueError(f"value {value} outside [0, 2^{bits})")


def _hamming(search: int, stored: int, bits: int) -> int:
    return bin((search ^ stored) & ((1 << bits) - 1)).count("1")


def _manhattan(search: int, stored: int, bits: int) -> int:
    return abs(search - stored)


def _euclidean_squared(search: int, stored: int, bits: int) -> int:
    d = search - stored
    return d * d


_REGISTRY: Dict[str, DistanceMetric] = {}


def register_metric(metric: DistanceMetric) -> DistanceMetric:
    """Add a metric to the registry (overwrites same-name entries)."""
    _REGISTRY[metric.name] = metric
    return metric


def get_metric(name: str) -> DistanceMetric:
    """Look up a registered metric by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def available_metrics() -> Tuple[str, ...]:
    """Names of all registered metrics, sorted."""
    return tuple(sorted(_REGISTRY))


HAMMING = register_metric(
    DistanceMetric("hamming", _hamming, monotone_alias="Hamming distance")
)
MANHATTAN = register_metric(
    DistanceMetric("manhattan", _manhattan, monotone_alias="L1 distance")
)
EUCLIDEAN = register_metric(
    DistanceMetric(
        "euclidean", _euclidean_squared, monotone_alias="squared L2 distance"
    )
)


# ----------------------------------------------------------------------
# Extension metrics (Table I's neighbouring AM designs, realised on the
# same FeReX machinery)
# ----------------------------------------------------------------------
def _best_match(search: int, stored: int, bits: int) -> int:
    return 0 if search == stored else 1


#: The "best-match" function of the 2FeFET-1T multi-bit CAM
#: [Li, IEDM 2020]: per-element exact-match indicator, so the row sum
#: counts mismatching elements regardless of how far apart they are.
BEST_MATCH = register_metric(
    DistanceMetric(
        "best-match", _best_match, monotone_alias="mismatch count"
    )
)


def capped_manhattan(cap: int) -> DistanceMetric:
    """Saturating L1: ``min(|s - t|, cap)``.

    A staircase stand-in for the *sigmoid* similarity of the 2FeFET AM
    [Kazemi, TC 2021]: beyond ``cap`` the element contributes no further
    distance, which bounds the cell current and shrinks the cell (see
    the saturating-distance extension bench).  Registered as
    ``capped-manhattan-<cap>``; repeated calls reuse the registration.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    name = f"capped-manhattan-{cap}"
    if name in _REGISTRY:
        return _REGISTRY[name]

    def element(search: int, stored: int, bits: int, _cap=cap) -> int:
        return min(abs(search - stored), _cap)

    return register_metric(
        DistanceMetric(name, element, monotone_alias="saturating L1")
    )
