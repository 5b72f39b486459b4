"""Depth-first branch-and-prune enumeration of all embeddings of an instance.

The search tree places one vertex per level.  Levels 1..K are seeded from the
initial embedding as a chain of feasible side-0 nodes (each with an
infeasible side-1 twin so that codes have length n).  From level K+1 on, the
window anchors define a hyperplane and a two-point sphere intersection; each
candidate is kept unless some pruning edge (an edge reaching in front of the
window) rejects it.  A node's *side* bit records which half-space of the
oriented anchor hyperplane its point fell in, with the orientation chained so
that consecutive normals have nonnegative dot product.

Also provides an independent exhaustive oracle (``brute_force``) that tries
every side-bit sequence from scratch and re-checks every edge, and plain
serialization of results.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateSpan,
    InvalidInstance,
    NodeBudgetExceeded,
    ParseError,
    TreeDiscarded,
)
from .geometry import ExtensionKind, extend_positions, hyperplane_through
from .instance import Instance, edge_violations, validate

logger = logging.getLogger(__name__)

#: Window residuals above this indicate numerical breakdown, not pruning.
WINDOW_RESIDUAL_ALARM = 1e-6


@dataclass
class SolverOptions:
    """Knobs for :func:`solve`.

    ``atol``/``rtol`` form the pruning band: an edge check fails iff
    ``|dist - d| > atol + rtol * d``.  ``max_nodes`` caps created tree nodes;
    ``keep_tree`` retains the search tree that ``branch_code``,
    ``partial_reflection`` and ``distance_spectrum`` walk.
    """

    atol: float = 1e-9
    rtol: float = 1e-9
    keep_tree: bool = False
    max_nodes: int | None = None


class BpNode:
    """Search-tree node: one placed point plus its side bit and feasibility."""

    __slots__ = ("level", "point", "side", "feasible", "parent", "children")

    def __init__(self, level, point, side, feasible, parent):
        self.level = level
        self.point = point
        self.side = side
        self.feasible = feasible
        self.parent = parent
        self.children: list[BpNode] = []

    def __repr__(self):
        flag = "+" if self.feasible else "-"
        return f"BpNode(level={self.level}, side={self.side}, {flag})"


@dataclass(eq=False)
class BpTree:
    """Retained search tree: virtual level-0 root plus per-level node lists."""

    root: BpNode
    levels: dict
    instance: Instance

    def feasible_leaves(self) -> list[BpNode]:
        return [node for node in self.levels.get(self.instance.n, []) if node.feasible]


@dataclass
class SolveStats:
    nodes_feasible: int = 0
    nodes_infeasible: int = 0
    candidates_pruned: int = 0
    empty_extensions: int = 0
    tangent_events: int = 0
    max_window_residual: float = 0.0
    child_hist: dict = field(default_factory=dict)
    budget_exceeded: bool = False
    wall_time: float = 0.0

    @property
    def uniform_level_violations(self) -> tuple:
        """Levels whose feasible nodes mix one and two feasible children.

        Empty on generic instances; firing marks the instance degenerate.
        """
        return tuple(sorted(
            lvl for lvl, hist in self.child_hist.items() if hist[1] and hist[2]))

    def bump(self, level: int, feasible_children: int) -> None:
        self.child_hist.setdefault(level, [0, 0, 0])[feasible_children] += 1


@dataclass(eq=False)
class SolveResult:
    """Solutions in canonical (lexicographic-code) order plus search metadata.

    ``branch_codes[i]`` is the n-bit tuple of side bits along the path to
    ``solutions[i]``; its first K bits are always 0.  ``tree`` and ``leaves``
    are populated only when the solve kept the tree.
    """

    instance: Instance | None
    solutions: list
    branch_codes: list
    tree: BpTree | None
    stats: SolveStats
    leaves: list | None = None

    @property
    def solution_count(self) -> int:
        return len(self.solutions)


class _BudgetHit(Exception):
    pass


class _Budget:
    def __init__(self, limit: int | None):
        self.limit = limit
        self.count = 0

    def add(self, k: int) -> None:
        self.count += k
        if self.limit is not None and self.count > self.limit:
            raise _BudgetHit()


class _Ctx:
    """Mutable search state."""

    __slots__ = ("K", "path", "sides", "solutions", "codes", "leaves", "levels", "stats")

    def __init__(self, n: int, K: int):
        self.K = K
        self.path = np.zeros((n, K))
        self.sides: list[int] = []
        self.solutions: list[np.ndarray] = []
        self.codes: list[tuple] = []
        self.leaves: list = []
        self.levels: dict = {}
        self.stats = SolveStats()

    def record_leaf(self, node) -> None:
        self.solutions.append(self.path.copy())
        self.codes.append((0,) * self.K + tuple(self.sides))
        self.leaves.append(node)


class _Search:
    def __init__(self, inst: Instance, opts: SolverOptions):
        self.inst = inst
        self.opts = opts
        self.K = inst.dimension
        self.n = inst.n
        self.x0 = inst.initial_points()
        self.radii = {
            v: np.array([inst.edges[(u, v)] for u in inst.window(v)])
            for v in range(self.K + 1, self.n + 1)
        }
        self.prune = {
            v: [(u - 1, inst.edges[(u, v)])
                for u in range(1, v - self.K) if (u, v) in inst.edges]
            for v in range(self.K + 1, self.n + 1)
        }
        self.budget = _Budget(opts.max_nodes)
        self.keep_tree = opts.keep_tree
        self.root: BpNode | None = None

    def run(self) -> _Ctx:
        ctx = _Ctx(self.n, self.K)
        ctx.path[: self.K] = self.x0
        chain_end = None
        if self.keep_tree:
            self.root = BpNode(0, None, 0, True, None)
            prev = self.root
            for lvl in range(1, self.K + 1):
                point = self.x0[lvl - 1].copy()
                live = BpNode(lvl, point, 0, True, prev)
                dead = BpNode(lvl, point.copy(), 1, False, prev)
                prev.children = [live, dead]
                ctx.levels[lvl] = [live, dead]
                prev = live
            chain_end = prev
        ctx.stats.nodes_feasible += self.K
        ctx.stats.nodes_infeasible += self.K
        for lvl in range(1, self.K):
            ctx.stats.bump(lvl, 1)
        try:
            self.budget.add(2 * self.K)
            if self.n == self.K:
                ctx.record_leaf(chain_end)
            else:
                self._expand(ctx, self.K + 1, chain_end, None)
        except _BudgetHit:
            ctx.stats.budget_exceeded = True
        return ctx

    def _expand(self, ctx: _Ctx, level: int, parent, prev_normal) -> None:
        if level > self.n:
            ctx.record_leaf(parent)
            return
        anchors = ctx.path[level - 1 - self.K : level - 1]
        try:
            plane = hyperplane_through(anchors, reference=prev_normal)
            ext = extend_positions(anchors, self.radii[level])
        except DegenerateSpan as exc:
            raise DegenerateSpan(
                f"degenerate anchors while placing vertex {level}: {exc}") from exc
        children = self._make_children(ctx, level, parent, plane, ext, anchors)
        for node, point, side, ok in children:
            if not ok:
                continue
            ctx.path[level - 1] = point
            ctx.sides.append(side)
            self._expand(ctx, level + 1, node, plane.normal)
            ctx.sides.pop()

    def _make_children(self, ctx: _Ctx, level: int, parent, plane, ext, anchors):
        """Create the (up to two) children of a feasible node, side 0 first."""
        stats = ctx.stats
        a, a0 = plane.normal, plane.offset

        def side_of(z) -> int:
            return 0 if float(a @ z) - a0 <= 0.0 else 1

        cand: list[tuple] = []
        if ext.kind is ExtensionKind.EMPTY:
            stats.empty_extensions += 1
        elif ext.kind is ExtensionKind.PAIR:
            z1, z2 = ext.points
            s1, s2 = side_of(z1), side_of(z2)
            if s1 == s2:  # both numerically on the plane: order by signed offset
                s1, s2 = (0, 1) if float(a @ z1) <= float(a @ z2) else (1, 0)
            cand = [(s1, z1, None), (s2, z2, None)]
        else:
            stats.tangent_events += 1
            z = ext.points[0]
            s = side_of(z)
            cand = [(s, z, None), (1 - s, z.copy(), False)]
        cand.sort(key=lambda t: t[0])
        self.budget.add(len(cand))

        out = []
        feasible_children = 0
        for side, z, forced in cand:
            ok = self._prune_ok(ctx, level, z) if forced is None else forced
            if ok:
                feasible_children += 1
                res = float(np.max(np.abs(
                    np.linalg.norm(anchors - z, axis=1) - self.radii[level])))
                stats.max_window_residual = max(stats.max_window_residual, res)
                if res > WINDOW_RESIDUAL_ALARM:
                    logger.warning("window residual %.3e at level %d", res, level)
                stats.nodes_feasible += 1
            else:
                stats.nodes_infeasible += 1
            node = None
            if self.keep_tree:
                node = BpNode(level, np.array(z), side, ok, parent)
                parent.children.append(node)
                ctx.levels.setdefault(level, []).append(node)
            out.append((node, z, side, ok))
        stats.bump(level - 1, feasible_children)
        return out

    def _prune_ok(self, ctx: _Ctx, level: int, z) -> bool:
        for row, d in self.prune[level]:
            dist = float(np.linalg.norm(ctx.path[row] - z))
            if abs(dist - d) > self.opts.atol + self.opts.rtol * d:
                ctx.stats.candidates_pruned += 1
                return False
        return True


def solve(inst: Instance, opts: SolverOptions | None = None) -> SolveResult:
    """Enumerate every embedding of a valid instance.

    Depth-first, side-0 child first; solutions come back sorted by their
    branch code, so output is deterministic.  Raises InvalidInstance when
    validation fails and NodeBudgetExceeded (with the flagged partial result
    attached) when ``opts.max_nodes`` is hit.
    """
    opts = opts or SolverOptions()
    report = validate(inst)
    if not report.ok:
        raise InvalidInstance(f"instance fails validation: {report.summary()}")
    started = time.perf_counter()
    search = _Search(inst, opts)
    ctx = search.run()
    order = sorted(range(len(ctx.codes)), key=ctx.codes.__getitem__)
    solutions = [ctx.solutions[i] for i in order]
    codes = [ctx.codes[i] for i in order]
    leaves = [ctx.leaves[i] for i in order] if opts.keep_tree else None
    tree = None
    if opts.keep_tree and search.root is not None:
        tree = BpTree(root=search.root, levels=ctx.levels, instance=inst)
    ctx.stats.wall_time = time.perf_counter() - started
    result = SolveResult(inst, solutions, codes, tree, ctx.stats, leaves)
    violations = ctx.stats.uniform_level_violations
    if violations:
        logger.warning(
            "levels %s mix one- and two-child feasible nodes: degenerate instance",
            list(violations))
    if ctx.stats.budget_exceeded:
        raise NodeBudgetExceeded(
            f"node budget {opts.max_nodes} exceeded", result=result)
    return result


def branch_code(result: SolveResult, index: int) -> tuple:
    """Side bits along the root-to-leaf path of one solution.

    Walks the retained tree; raises TreeDiscarded when the solve ran with
    ``keep_tree=False``.  The first K bits are always 0 (seeded chain).
    """
    if result.tree is None or result.leaves is None:
        raise TreeDiscarded("branch_code needs solve(..., keep_tree=True)")
    node = result.leaves[index]
    bits = []
    while node is not None and node.level >= 1:
        bits.append(node.side)
        node = node.parent
    bits.reverse()
    code = tuple(bits)
    assert code == result.branch_codes[index]
    return code


def recompute_code(inst: Instance, embedding) -> tuple:
    """Re-derive the side bits of an embedding from its coordinates alone."""
    emb = np.asarray(embedding, dtype=float)
    K, n = inst.dimension, inst.n
    bits = [0] * K
    prev_normal = None
    for level in range(K + 1, n + 1):
        plane = hyperplane_through(emb[level - 1 - K : level - 1], reference=prev_normal)
        bits.append(0 if float(plane.normal @ emb[level - 1]) - plane.offset <= 0.0 else 1)
        prev_normal = plane.normal
    return tuple(bits)


def brute_force(inst: Instance, atol: float = 1e-9, rtol: float = 1e-9) -> list:
    """Independent enumeration oracle.

    Tries all 2**(n-K) side-bit sequences; each one rebuilds an embedding
    from scratch by repeated sphere intersection, taking the root on the
    requested side of the oriented anchor hyperplane, and is kept only if the
    finished embedding satisfies *every* edge of the instance.  Shares only
    the geometric placement primitives with :func:`solve`; no tree, no
    incremental pruning.  Returns embeddings in the same canonical order.
    """
    report = validate(inst)
    if not report.ok:
        raise InvalidInstance(f"instance fails validation: {report.summary()}")
    K, n = inst.dimension, inst.n
    if n - K > 24:
        raise BudgetExceeded(f"brute force over {n - K} levels is beyond the 2**24 cap")
    x0 = inst.initial_points()
    radii = {
        v: np.array([inst.edges[(u, v)] for u in inst.window(v)])
        for v in range(K + 1, n + 1)
    }
    found = []
    for bits in itertools.product((0, 1), repeat=n - K):
        path = np.zeros((n, K))
        path[:K] = x0
        prev_normal = None
        ok = True
        for pos, want in enumerate(bits):
            level = K + 1 + pos
            anchors = path[level - 1 - K : level - 1]
            plane = hyperplane_through(anchors, reference=prev_normal)
            ext = extend_positions(anchors, radii[level])
            if ext.kind is ExtensionKind.EMPTY:
                ok = False
                break
            offside = lambda z: 0 if float(plane.normal @ z) - plane.offset <= 0.0 else 1
            if ext.kind is ExtensionKind.TANGENT:
                z = ext.points[0]
                if offside(z) != want:
                    ok = False
                    break
            else:
                z1, z2 = ext.points
                if offside(z1) == want:
                    z = z1
                elif offside(z2) == want:
                    z = z2
                else:
                    ok = False
                    break
            path[level - 1] = z
            prev_normal = plane.normal
        if ok and not edge_violations(inst, path, atol, rtol):
            found.append(path)
    return found


def serialize_result(result: SolveResult) -> str:
    """Deterministic plain-text form of a solve result (no timing data)."""
    stats = result.stats
    if stats.budget_exceeded:
        status = "budget-exceeded"
    elif result.solutions:
        status = "solved"
    else:
        status = "infeasible"
    if result.instance is not None:
        K, n = result.instance.dimension, result.instance.n
    elif result.solutions:
        K, n = len(result.solutions[0][0]), len(result.solutions[0])
    else:
        raise ValueError("cannot size a result with neither instance nor solutions")
    lines = [
        "format: dgp-result 1",
        f"status: {status}",
        f"dimension: {K}",
        f"n: {n}",
        f"solution_count: {len(result.solutions)}",
        f"nodes_feasible: {stats.nodes_feasible}",
        f"nodes_infeasible: {stats.nodes_infeasible}",
        f"candidates_pruned: {stats.candidates_pruned}",
        f"empty_extensions: {stats.empty_extensions}",
        f"tangent_events: {stats.tangent_events}",
        f"max_window_residual: {stats.max_window_residual:.17g}",
        "child_hist:",
    ]
    for lvl in sorted(stats.child_hist):
        c0, c1, c2 = stats.child_hist[lvl]
        lines.append(f"{lvl} {c0} {c1} {c2}")
    lines.append("solutions:")
    for code, emb in zip(result.branch_codes, result.solutions):
        lines.append("code " + "".join(map(str, code)))
        for row in emb:
            lines.append(" ".join("%.17g" % c for c in row))
    return "\n".join(lines) + "\n"


def parse_result(text: str) -> SolveResult:
    """Parse :func:`serialize_result` output (tree and instance are None)."""
    stats = SolveStats()
    K = n = None
    count = None
    solutions: list = []
    codes: list = []
    mode = None
    current: list | None = None
    int_fields = {
        "solution_count", "nodes_feasible", "nodes_infeasible",
        "candidates_pruned", "empty_extensions", "tangent_events",
    }
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("code "):
            if mode != "solutions":
                raise ParseError("'code' line outside solutions block", lineno)
            bits = line[5:].strip()
            if not bits or set(bits) - {"0", "1"}:
                raise ParseError(f"bad code {bits!r}", lineno)
            codes.append(tuple(int(b) for b in bits))
            current = []
            solutions.append(current)
            continue
        if ":" in line and mode != "solutions":
            key, _, rest = line.partition(":")
            key, rest = key.strip(), rest.strip()
            if key == "format":
                if not rest.startswith("dgp-result"):
                    raise ParseError(f"not a result file (format {rest!r})", lineno)
            elif key == "status":
                stats.budget_exceeded = rest == "budget-exceeded"
            elif key == "dimension":
                K = int(rest)
            elif key == "n":
                n = int(rest)
            elif key in int_fields:
                value = int(rest)
                if key == "solution_count":
                    count = value
                else:
                    setattr(stats, key, value)
            elif key == "max_window_residual":
                stats.max_window_residual = float(rest)
            elif key == "child_hist":
                mode = "hist"
            elif key == "solutions":
                mode = "solutions"
            else:
                raise ParseError(f"unknown field {key!r}", lineno)
            continue
        if mode == "hist":
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"bad histogram line {line!r}", lineno)
            lvl, c0, c1, c2 = (int(p) for p in parts)
            stats.child_hist[lvl] = [c0, c1, c2]
        elif mode == "solutions":
            if current is None:
                raise ParseError("coordinate row before any 'code' line", lineno)
            parts = line.split()
            if K is None or len(parts) != K:
                raise ParseError(f"expected {K} coordinates, got {len(parts)}", lineno)
            current.append([float(p) for p in parts])
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)
    if K is None or n is None or count is None:
        raise ParseError("missing required result fields")
    if len(solutions) != count:
        raise ParseError(f"solution_count says {count}, file has {len(solutions)}")
    arrays = []
    for rows in solutions:
        if len(rows) != n:
            raise ParseError(f"solution has {len(rows)} rows, expected {n}")
        arrays.append(np.asarray(rows, dtype=float))
    return SolveResult(None, arrays, codes, None, stats, None)
