"""Branch-and-prune enumeration for vertex-ordered distance geometry.

Builds every embedding of an instance whose vertices are each determined, up
to a two-way choice, by their K immediate predecessors; verifies the
reflection-symmetry structure of the solution set (branch codes form one
orbit of a suffix-flip group over GF(2), so generic instances have a
power-of-two number of solutions); and ships generators for both generic
random instances and a degenerate unit-distance family with six solutions.
"""

__version__ = "0.1.0"

from .errors import (
    AmbiguousSpectrum,
    BudgetExceeded,
    DegenerateSpan,
    DgbpError,
    DimensionMismatch,
    GenericityFailure,
    InvalidInstance,
    NegativeDeterminant,
    NodeBudgetExceeded,
    NoSiblingBranch,
    ParseError,
    SubtreeNotFull,
)
from .geometry import (
    ExtensionStack,
    cayley_menger_volume,
    extend_stack,
    level_table,
    reflect_stack,
)
from .instance import (
    Instance,
    ValidationReport,
    Violation,
    ViolationCode,
    counterexample,
    edge_violations,
    parse_instance,
    random_instance,
    regular_simplex,
    serialize_instance,
    stacked_edge_violations,
    validate,
)
from .solver import (
    SolveResult,
    SolveStats,
    SolverOptions,
    brute_force,
    parse_result,
    recompute_code,
    recompute_codes,
    serialize_result,
    solve,
)
from .symmetry import (
    ReflectionCheck,
    SymmetryReport,
    branch_levels,
    branches_both_ways,
    distance_spectrum,
    partial_reflection,
    serialize_report,
    suffix_flip,
    verify_orbit,
)

__all__ = [
    "AmbiguousSpectrum", "BudgetExceeded", "DegenerateSpan", "DgbpError", "DimensionMismatch",
    "GenericityFailure", "InvalidInstance", "NegativeDeterminant", "NodeBudgetExceeded",
    "NoSiblingBranch", "ParseError", "SubtreeNotFull",
    "ExtensionStack", "cayley_menger_volume", "extend_stack", "level_table", "reflect_stack",
    "Instance", "ValidationReport", "Violation", "ViolationCode", "counterexample",
    "edge_violations", "parse_instance", "random_instance", "regular_simplex",
    "serialize_instance", "stacked_edge_violations", "validate",
    "SolveResult", "SolveStats", "SolverOptions", "brute_force", "parse_result",
    "recompute_code", "recompute_codes", "serialize_result", "solve",
    "ReflectionCheck", "SymmetryReport", "branch_levels", "branches_both_ways",
    "distance_spectrum", "partial_reflection", "serialize_report", "suffix_flip", "verify_orbit",
]
