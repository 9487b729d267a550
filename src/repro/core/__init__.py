"""FeReX core: the paper's contribution — CSP-based reconfigurable
distance encoding and the search-engine API built on it.
"""

from .config import BankConfig, code_dtype, quantize_codes
from .constructive import (
    constructive_cell,
    euclidean_cell,
    hamming_cell,
    has_constructive,
    manhattan_cell,
)
from .csp import CSP, Constraint, ac3, backtracking_search, solve_all
from .decompose import decompose, decomposable, min_fefets_for
from .distance import (
    DistanceMetric,
    EUCLIDEAN,
    HAMMING,
    MANHATTAN,
    available_metrics,
    get_metric,
    register_metric,
)
from .dm import DistanceMatrix
from .encoding import (
    CellEncoding,
    EncodingError,
    FeFETEncoding,
    best_encoding,
    encode_cell,
    encode_fefet,
    off_count_search_levels,
    verify_encoding,
)
from .engine import (
    ConfigurationError,
    EngineSearchResult,
    FeReX,
    NotProgrammedError,
)
from .feasibility import (
    CellSolution,
    FeasibilityResult,
    RowAssignment,
    check_feasibility,
    enumerate_row_assignments,
    find_min_cell,
    iter_solutions,
    rows_compatible,
)
from .kernel import (
    KernelOverflowError,
    LUTKernel,
    QuantizedKernel,
    accumulator_bound,
    select_accumulator,
    select_quantum,
)

__all__ = [
    "ac3",
    "accumulator_bound",
    "available_metrics",
    "backtracking_search",
    "BankConfig",
    "best_encoding",
    "CellEncoding",
    "CellSolution",
    "check_feasibility",
    "code_dtype",
    "ConfigurationError",
    "Constraint",
    "constructive_cell",
    "CSP",
    "decomposable",
    "decompose",
    "DistanceMatrix",
    "DistanceMetric",
    "encode_cell",
    "encode_fefet",
    "EncodingError",
    "EngineSearchResult",
    "enumerate_row_assignments",
    "EUCLIDEAN",
    "euclidean_cell",
    "FeasibilityResult",
    "FeFETEncoding",
    "FeReX",
    "find_min_cell",
    "get_metric",
    "HAMMING",
    "hamming_cell",
    "has_constructive",
    "iter_solutions",
    "KernelOverflowError",
    "LUTKernel",
    "MANHATTAN",
    "manhattan_cell",
    "min_fefets_for",
    "NotProgrammedError",
    "off_count_search_levels",
    "quantize_codes",
    "QuantizedKernel",
    "register_metric",
    "RowAssignment",
    "rows_compatible",
    "select_accumulator",
    "select_quantum",
    "solve_all",
    "verify_encoding",
]
