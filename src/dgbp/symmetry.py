"""Reflection structure of the solution set, expressed over GF(2).

Branch codes (the n-bit side sequences of solutions) live in the group of
n-bit vectors under XOR.  The *suffix flip* at level i (all bits from i on
flipped) models re-branching at that level: reflecting the tail of a solution
across its level-i anchor hyperplane lands on another solution whose code is
the original XOR the flip.  On generic instances the code set is a single
orbit of the subgroup spanned by the flips at the fully branching levels, so
the solution count is the subgroup order, a power of two.  This module
verifies all of that numerically and flags the degenerate cases where it
fails.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AmbiguousSpectrum, NoSiblingBranch, SubtreeNotFull
from .geometry import _anchor_planes, reflect_stack
from .solver import _code_text, _prefix_leaves

#: Relative cluster tolerance for distance spectra (scaled by the largest
#: edge distance of the instance).
SPECTRUM_TOL = 1e-6


def suffix_flip(level: int, n: int) -> tuple:
    """Bit vector with ones from position ``level`` (1-based) to the end."""
    if not 1 <= level <= n:
        raise IndexError(f"level must be in 1..{n}, got {level}")
    return tuple(1 if j >= level else 0 for j in range(1, n + 1))


def branch_levels(result) -> frozenset:
    """Levels at which every surviving search prefix splits both ways.

    A level i belongs to the set iff every length-(i-1) prefix of the code
    set extends with both a 0 and a 1 bit, i.e. every feasible node at level
    i-1 that lies on a path to a feasible leaf has two children that each
    reach a feasible leaf.  Levels where some prefixes split and others do
    not (possible only on degenerate instances) are excluded.  ``result``
    may also be a list of equal-length codes or an (S, n) code matrix.

    With the distinct codes sorted, the codes sharing their first i-1 bits
    form a run, which splits at level i iff its first code has bit 0 there
    and its last code bit 1.
    """
    codes = getattr(result, "branch_codes", result)
    if len(codes) == 0:
        return frozenset()
    sorted_codes = _distinct_sorted(codes)
    n = sorted_codes.shape[1]
    # Column where each code first differs from the one before; a run of
    # length-c prefixes starts at a row whose column is < c (row 0 always)
    # and ends before the next such row (the last row always).
    first = np.concatenate([[-1], (sorted_codes[1:] != sorted_codes[:-1]).argmax(1), [-1]])
    cols = np.arange(n)
    starts = first[:-1, None] < cols
    ends = first[1:, None] < cols
    split = ~((starts & (sorted_codes == 1)) | (ends & (sorted_codes == 0))).any(0)
    return frozenset((np.flatnonzero(split) + 1).tolist())


def _distinct_sorted(codes) -> np.ndarray:
    """The distinct codes as an (m, n) int8 matrix in lexicographic order."""
    matrix = np.array(codes, dtype=np.int8)
    matrix = matrix[np.lexsort(matrix.T[::-1])]
    return matrix[np.r_[True, (matrix[1:] != matrix[:-1]).any(1)]]


def branches_both_ways(result, index: int, vertex: int) -> bool:
    """Does this solution's path split at ``vertex`` with feasible leaves on
    both sides?

    Read off the code set: the path branches iff some code extends this
    solution's length-(vertex-1) prefix with a 0 bit and another with a 1
    bit.  ``branch_codes`` is in lexicographic order, so two bisections
    answer that.  K and n are the solution's shape.
    """
    n, K = np.shape(result.solutions[index])
    if not K + 1 <= vertex <= n:
        raise ValueError(f"vertex must be in {K + 1}..{n}, got {vertex}")
    codes = result.branch_codes
    prefix = codes[index][: vertex - 1]
    return all(_has_prefix(codes, prefix + (bit,)) for bit in (0, 1))


def _has_prefix(sorted_codes, prefix: tuple) -> bool:
    at = bisect_left(sorted_codes, prefix)
    return at < len(sorted_codes) and sorted_codes[at][: len(prefix)] == prefix


def partial_reflection(result, index: int, vertex: int) -> np.ndarray:
    """Reflect the tail of a solution across its anchor hyperplane at ``vertex``.

    Coordinates of vertices before ``vertex`` are kept; every vertex from
    ``vertex`` on is mirrored across the hyperplane through the K window
    anchors of ``vertex`` in this solution.  Meaningful (it lands on another
    solution, with the branch code XORed by the suffix flip) whenever the
    path genuinely branches at ``vertex``; otherwise NoSiblingBranch is
    raised.  K is the solution's shape; no instance is needed.
    """
    if not branches_both_ways(result, index, vertex):
        raise NoSiblingBranch(
            f"solution {index} does not branch both ways at vertex {vertex}")
    return _mirror_tails(np.asarray(result.solutions[index], dtype=float)[None], vertex)[0]


def _mirror_tails(stack: np.ndarray, vertex: int) -> np.ndarray:
    """Partial reflections at ``vertex`` of every solution of an (S, n, K) stack.

    One anchor plane per solution, through its rows vertex-1-K..vertex-2 and
    oriented as :func:`hyperplane_through` orients it without a reference;
    rows from vertex-1 on are mirrored across it, earlier rows are kept.
    """
    K = stack.shape[2]
    normals, offsets, pivots, _ = _anchor_planes(stack[:, vertex - 1 - K : vertex - 1], None)
    out = stack.copy()
    out[:, vertex - 1 :] = reflect_stack(normals, offsets, pivots, stack[:, vertex - 1 :])
    return out


class ReflectionCheck(NamedTuple):
    """One tail-reflection check of :func:`verify_orbit`.

    A named tuple, not a dataclass: a full tree makes one per (solution,
    branching level), hundreds of thousands of them.
    """

    solution_index: int
    level: int
    residual: float
    code_matches: bool
    matched_index: int


@dataclass(frozen=True)
class SymmetryReport:
    n: int
    solution_count: int
    branch_levels: frozenset
    generators: tuple
    group_order: int
    codes: tuple
    orbit_verified: bool
    power_of_two: bool
    degenerate: bool
    uniform_level_violations: tuple
    tangent_events: int
    reflection_checks: tuple


def verify_orbit(result) -> SymmetryReport:
    """Check that the code set is one orbit of the suffix-flip subgroup.

    With ``base`` the least code, a code ``c`` lies in ``base`` XOR the span
    of the flips at the fully branching levels I iff ``d = c XOR base``
    changes bit value (reading ``d_0 = 0``) only at levels in I: the flips
    form a triangular basis.  The orbit holds iff every code passes and the
    code set has exactly 2**|I| elements; the power-of-two verdict compares
    the solution count with that order.  Both verdicts are reported, not
    raised: on generic instances they hold, on degenerate ones (flagged via
    the mixed-children diagnostic or tangent events) they are expected to
    fail.  Both tests read the distinct codes as a sorted bit matrix.

    When the result carries its instance, as every :func:`solve` result
    does, every (solution, level in I) pair is additionally checked against
    the tail-reflection prediction: the residual is measured to the solution
    whose code is the predicted partner ``c XOR flip_i``, or is ``inf``
    (``matched_index=-1``) when no solution has that code.  A result read
    from a file has no instance and gets no reflection checks.
    """
    codes = list(result.branch_codes)
    if not codes:
        raise ValueError("orbit verification needs at least one solution")
    distinct = _distinct_sorted(codes)
    n = distinct.shape[1]
    levels = branch_levels(distinct)
    gens = tuple(suffix_flip(i, n) for i in sorted(levels))
    group_order = 2 ** len(levels)
    moves = np.diff(distinct ^ distinct[0], axis=1, prepend=0) != 0
    fixed = np.ones(n, dtype=bool)
    fixed[[i - 1 for i in levels]] = False
    orbit_verified = len(distinct) == group_order and not moves[:, fixed].any()
    power_of_two = len(result.solutions) == group_order

    stats = getattr(result, "stats", None)
    violations = tuple(stats.uniform_level_violations) if stats else ()
    tangents = stats.tangent_events if stats else 0
    degenerate = bool(violations) or tangents > 0

    checks: list[ReflectionCheck] = []
    if result.instance is not None:
        checks = _reflection_checks(np.asarray(result.solutions, dtype=float), codes,
                                    sorted(levels))

    return SymmetryReport(
        n=n,
        solution_count=len(result.solutions),
        branch_levels=levels,
        generators=gens,
        group_order=group_order,
        codes=tuple(codes),
        orbit_verified=orbit_verified,
        power_of_two=power_of_two,
        degenerate=degenerate,
        uniform_level_violations=violations,
        tangent_events=tangents,
        reflection_checks=tuple(checks),
    )


def _reflection_checks(stack: np.ndarray, codes: list, levels: list) -> list:
    """Tail-reflection checks of every (solution, level), solution major.

    Per level: one stacked partial reflection of all S solutions, partners
    found through codes packed into integers (the suffix flip at i is the
    mask of the low n-i+1 bits), and the residual ``max_row |partner -
    mirrored|``.
    """
    S, n = stack.shape[:2]
    keys = [int(_code_text(code), 2) for code in codes]
    index_of = {key: i for i, key in enumerate(keys)}
    partners = np.empty((S, len(levels)), dtype=np.int64)
    residuals = np.empty((S, len(levels)))
    for j, lvl in enumerate(levels):
        flip = (1 << (n - lvl + 1)) - 1
        partner = np.array([index_of.get(key ^ flip, -1) for key in keys])
        d = stack[partner] - _mirror_tails(stack, lvl)
        residual = np.sqrt((d * d).sum(-1)).max(-1)
        residual[partner < 0] = np.inf
        partners[:, j], residuals[:, j] = partner, residual
    return list(map(ReflectionCheck,
                    np.repeat(np.arange(S), len(levels)).tolist(),
                    levels * S,
                    residuals.ravel().tolist(),
                    (partners >= 0).ravel().tolist(),
                    partners.ravel().tolist()))


def distance_spectrum(result, u: int, v: int) -> tuple:
    """Distinct distances between ranks ``u`` and ``v`` over a full subtree.

    The subtree root is the leftmost feasible node at level ``u``: the
    seeded point when u <= K, else the first leaf of the search on the
    prefix instance of vertices 1..u (see ``solver._prefix_leaves``).  Its
    subtree is the set of leaves of the level-``v`` prefix search whose code
    starts with the root's code; it is full, holding 2**q nodes for the q
    branching levels in u+1..v, only if every node in it has its full
    complement of feasible children (SubtreeNotFull otherwise).  The
    distances from the root's point to each level-``v`` point are then
    clustered.  On generic chains with v - u = K + q the cluster count is
    2**q.  Clusters separated by less than ten times the tolerance raise
    AmbiguousSpectrum rather than guessing.  The searches run from
    ``result.instance`` (ValueError for a result without one) with the
    default tolerances.
    """
    inst = result.instance
    if inst is None:
        raise ValueError("distance_spectrum needs the instance the result was solved from")
    K, n = inst.dimension, inst.n
    if not 1 <= u < v <= n:
        raise ValueError(f"need 1 <= u < v <= {n}, got u={u}, v={v}")
    if v - u <= K:
        raise ValueError(f"need v - u > K for a spectrum, got v - u = {v - u}")
    if u <= K:
        root, anchor = (0,) * u, inst.initial_points()[u - 1]
    else:
        points, codes = _prefix_leaves(inst, u)
        if not codes:
            raise SubtreeNotFull(f"no feasible node at level {u}")
        root, anchor = codes[0], points[0, u - 1]
    points, codes = _prefix_leaves(inst, v)
    leaves = [point[v - 1] for point, code in zip(points, codes) if code[:u] == root]
    full = 2 ** (v - max(u, K))
    if len(leaves) != full:
        raise SubtreeNotFull(
            f"subtree of the level-{u} node has {len(leaves)} feasible nodes at "
            f"level {v}, expected {full}")
    dists = sorted(float(np.linalg.norm(point - anchor)) for point in leaves)
    scale = max(inst.edges.values())
    tol = SPECTRUM_TOL * scale
    clusters: list[list[float]] = [[dists[0]]]
    for d in dists[1:]:
        if d - clusters[-1][-1] > tol:
            clusters.append([d])
        else:
            clusters[-1].append(d)
    reps = tuple(sum(c) / len(c) for c in clusters)
    for a, b in zip(reps, reps[1:]):
        if b - a < 10.0 * tol:
            raise AmbiguousSpectrum(
                f"clusters at {a!r} and {b!r} are closer than 10x tolerance")
    return reps


def serialize_report(report: SymmetryReport) -> str:
    """Deterministic plain-text form of a symmetry report."""
    lines = [
        "format: dgp-symmetry 1",
        f"n: {report.n}",
        f"solution_count: {report.solution_count}",
        "branch_levels: " + " ".join(map(str, sorted(report.branch_levels))),
        f"group_order: {report.group_order}",
        f"orbit_verified: {str(report.orbit_verified).lower()}",
        f"power_of_two: {str(report.power_of_two).lower()}",
        f"degenerate: {str(report.degenerate).lower()}",
        "uniform_level_violations: "
        + " ".join(map(str, report.uniform_level_violations)),
        f"tangent_events: {report.tangent_events}",
        "codes:",
    ]
    lines += map(_code_text, report.codes)
    lines.append("reflection_checks:")
    for chk in report.reflection_checks:
        lines.append(
            f"{chk.solution_index} {chk.level} {chk.residual:.17g} "
            f"{str(chk.code_matches).lower()} {chk.matched_index}")
    return "\n".join(lines) + "\n"
