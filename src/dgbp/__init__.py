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
    GroupTooLarge,
    InvalidInstance,
    NegativeDeterminant,
    NodeBudgetExceeded,
    NoSiblingBranch,
    ParseError,
    SubtreeNotFull,
    TreeDiscarded,
)
from .geometry import (
    ExtensionKind,
    ExtensionResult,
    Hyperplane,
    cayley_menger_volume,
    extend_positions,
    hyperplane_through,
    reflect,
)
from .instance import (
    EdgeKind,
    Instance,
    ValidationReport,
    Violation,
    ViolationCode,
    counterexample,
    edge_kind,
    edge_violations,
    parse_instance,
    random_instance,
    regular_simplex,
    serialize_instance,
    validate,
)
from .solver import (
    BpNode,
    BpTree,
    SolveResult,
    SolveStats,
    SolverOptions,
    branch_code,
    brute_force,
    parse_result,
    recompute_code,
    serialize_result,
    solve,
)
from .symmetry import (
    ReflectionCheck,
    SymmetryReport,
    branch_levels,
    branches_both_ways,
    combine_flips,
    distance_spectrum,
    partial_reflection,
    serialize_report,
    span_flips,
    suffix_flip,
    verify_orbit,
    xor_bits,
)

__all__ = [name for name in dir() if not name.startswith("_")]
