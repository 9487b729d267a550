"""The Distance Matrix (DM) — the target the encoding must realise.

Paper Sec. III-B: "The distance metrics can be represented by the Distance
Matrix (DM). Within the matrix, columns stand for stored values, and rows
correspond to various search values, with each element in the matrix
denoting the distance between a stored value and a search value."

Figure 4(a) of the paper shows the 2-bit Hamming DM; that exact matrix is a
doctest below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .distance import DistanceMetric, get_metric, metric_element_lut


@dataclass(frozen=True)
class DistanceMatrix:
    """An M x N integer target matrix: rows = search values, cols = stored.

    Usually square with M = N = 2**bits, but arbitrary matrices are
    accepted so that custom (even asymmetric) similarity tables can be
    mapped onto FeReX cells.

    >>> dm = DistanceMatrix.from_metric("hamming", bits=2)
    >>> dm.values.tolist()
    [[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]]
    """

    values: np.ndarray
    #: Bit width of the alphabet (0 when constructed from a raw matrix).
    bits: int = 0
    #: Name of the generating metric ("" for custom matrices).
    metric_name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError("DM must be 2-D")
        if values.size == 0:
            raise ValueError("DM must be non-empty")
        if values.min() < 0:
            raise ValueError("DM entries must be non-negative integers")
        object.__setattr__(self, "values", values)

    # ------------------------------------------------------------------
    @classmethod
    def from_metric(
        cls,
        metric: "str | DistanceMetric",
        bits: int,
    ) -> "DistanceMatrix":
        """Build the 2^bits x 2^bits DM of a registered metric.  Its
        values are the metric's cached, read-only element table
        (:func:`repro.core.distance.metric_element_lut`)."""
        if isinstance(metric, str):
            metric = get_metric(metric)
        return cls(
            values=metric_element_lut(metric, bits),
            bits=bits,
            metric_name=metric.name,
        )

    @classmethod
    def from_table(cls, table: Sequence[Sequence[int]]) -> "DistanceMatrix":
        """Wrap a raw integer table as a custom DM."""
        return cls(values=np.asarray(table, dtype=np.int64))

    # ------------------------------------------------------------------
    @property
    def n_search(self) -> int:
        """Number of search (row) values M."""
        return self.values.shape[0]

    @property
    def n_stored(self) -> int:
        """Number of stored (column) values N."""
        return self.values.shape[1]

    @property
    def max_value(self) -> int:
        """Largest entry — lower-bounds the cell's total current range."""
        return int(self.values.max())

    def entry(self, search_value: int, stored_value: int) -> int:
        """DM element ``I_{sch,sto}``."""
        return int(self.values[search_value, stored_value])

    def row(self, search_value: int) -> List[int]:
        """One search row of the DM."""
        return [int(v) for v in self.values[search_value]]

    def is_symmetric(self) -> bool:
        """True for symmetric metrics (all three paper metrics are)."""
        return self.n_search == self.n_stored and bool(
            np.array_equal(self.values, self.values.T)
        )

    def zero_diagonal(self) -> bool:
        """True when identical values have distance zero."""
        if self.n_search != self.n_stored:
            return False
        return bool(np.all(np.diag(self.values) == 0))

    def describe(self) -> str:
        """Human-readable rendering (used by benches and examples)."""
        name = self.metric_name or "custom"
        lines = [f"DM[{name}] {self.n_search}x{self.n_stored}"]
        for sch in range(self.n_search):
            row = " ".join(f"{v:2d}" for v in self.values[sch])
            lines.append(f"  sch={sch:2d} | {row}")
        return "\n".join(lines)
