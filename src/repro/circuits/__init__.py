"""Circuit-level substrate: ScL clamp op-amp, loser-take-all comparator
and row interface multiplexing.

Behavioural equivalents of the transistor-level blocks the paper simulates
in Cadence (45 nm PTM + scaled two-stage op-amp + current-domain LTA).
"""

from .interface import RowBias, RowInterface, RowMode
from .lta import BatchLTADecision, LoserTakeAll, LTADecision
from .opamp import ClampOpAmp, SettlingReport

__all__ = [
    "BatchLTADecision",
    "ClampOpAmp",
    "LoserTakeAll",
    "LTADecision",
    "RowBias",
    "RowInterface",
    "RowMode",
    "SettlingReport",
]
