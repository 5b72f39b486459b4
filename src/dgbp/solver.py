"""Branch-and-prune enumeration of all embeddings of an instance.

The search tree places one vertex per level.  Levels 1..K are seeded from the
initial embedding as a chain of feasible side-0 nodes (each counted with an
infeasible side-1 twin), so codes have length n and start with K zeros.
From level K+1 on, the window anchors define a hyperplane and a two-point
sphere intersection; each candidate is kept unless some pruning edge (an
edge reaching in front of the window) rejects it.  A node's *side* bit
records which half-space of the oriented anchor hyperplane its point fell
in, with the orientation chained so that consecutive normals have
nonnegative dot product.  All nodes of a level share their radii and
pruning edges, so the search expands whole batches of same-level nodes at
once, depth first over batches of at most BATCH_ROWS.

Also provides an independent exhaustive oracle (``brute_force``) that
expands every side-bit sequence without pruning and then checks every edge,
and plain serialization of results.
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
    DimensionMismatch,
    InvalidInstance,
    NodeBudgetExceeded,
    ParseError,
)
from .geometry import EPS_NORMAL, _anchor_planes, extend_stack, row_dots
from .instance import Instance, stacked_edge_violations, validate

logger = logging.getLogger(__name__)

#: Window residuals above this fraction of the longest edge indicate
#: numerical breakdown, not pruning.
WINDOW_RESIDUAL_ALARM = 1e-6


@dataclass
class SolverOptions:
    """Knobs for :func:`solve`.

    ``atol``/``rtol`` form the pruning band: an edge check fails iff
    ``|dist - d| > atol + rtol * d``; ``atol`` is a length, so it scales
    with the instance.  ``max_nodes`` caps created tree nodes.
    ``keep_tree`` is accepted and ignored, so that callers passing it keep
    working: no search tree is retained, since everything that reads the
    solution set needs only the solutions, their branch codes and the
    instance.
    """

    atol: float = 1e-9
    rtol: float = 1e-9
    keep_tree: bool = False
    max_nodes: int | None = None


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


@dataclass(eq=False)
class SolveResult:
    """Solutions in canonical (lexicographic-code) order plus search metadata.

    ``branch_codes[i]`` is the n-bit tuple of side bits along the path to
    ``solutions[i]``; its first K bits are always 0.  ``instance`` is the
    solved instance, or None for a result read from a file.
    """

    instance: Instance | None
    solutions: list
    branch_codes: list
    stats: SolveStats

    @property
    def solution_count(self) -> int:
        return len(self.solutions)


#: Most rows one batch of the search, or one call of the placement
#: primitive, may hold; a wider level is expanded in depth-first chunks.
BATCH_ROWS = 1024


class _Search:
    """Depth-first walk over batches of equal-level tree nodes.

    A batch is ``(level, paths, codes, references)``: row f holds the
    placed points ``paths[f, :level]`` of one feasible node, its side bits
    ``codes[f, :level]`` and the normal its children's plane is oriented by.
    No node is kept beyond its batch.  All rows of a level share radii and
    pruning edges, so one batch is expanded by one :func:`extend_stack`
    call, one prune check over the level's pruning edges and one window
    residual check.  Feasible children, in row order and side 0 first, are
    cut into chunks of at most BATCH_ROWS rows, pushed last first.  Batches
    at one level are thus expanded in lexicographic code order, which is
    the preorder of a node-by-node depth-first search: leaves come out
    sorted by code.
    """

    def __init__(self, inst: Instance, opts: SolverOptions):
        self.opts = opts
        self.K = K = inst.dimension
        self.n = inst.n
        self.x0 = inst.initial_points()
        self.radii = {
            v: np.array([inst.edges[(u, v)] for u in inst.window(v)])
            for v in range(K + 1, self.n + 1)
        }
        self.prune = {}
        for v in range(K + 1, self.n + 1):
            back = [u for u in inst.predecessors(v) if u < v - K]
            self.prune[v] = (np.array(back, dtype=int) - 1,
                             np.array([inst.edges[(u, v)] for u in back]))
        self.created = 0
        self.solutions: list[np.ndarray] = []
        self.codes: list[tuple] = []
        self.stats = SolveStats()

    def run(self) -> None:
        K, n, stats = self.K, self.n, self.stats
        stats.nodes_feasible += K
        stats.nodes_infeasible += K
        for lvl in range(1, K):
            stats.child_hist[lvl] = [0, 1, 0]
        paths = np.zeros((1, n, K))
        paths[0, :K] = self.x0
        self.created += 2 * K
        stack = [(K, paths, np.zeros((1, n), dtype=np.int8), None)]
        while stack and self._within_budget():
            self._expand(stack, *stack.pop())
        stats.budget_exceeded = not self._within_budget()

    def _within_budget(self) -> bool:
        return self.opts.max_nodes is None or self.created <= self.opts.max_nodes

    def _expand(self, stack, level, paths, codes, references) -> None:
        K, stats = self.K, self.stats
        if level == self.n:
            self.solutions.extend(paths)
            self.codes.extend(map(tuple, codes.tolist()))
            return
        anchors = paths[:, level - K : level]
        radii = self.radii[level + 1]
        try:
            ext = extend_stack(anchors, radii, references)
        except DegenerateSpan as exc:
            raise DegenerateSpan(
                f"degenerate anchors while placing vertex {level + 1}: {exc}") from exc
        # The budget counts both children of every non-empty row, feasible
        # or not; it is checked before they are created.
        empty, tangent, pair = np.bincount(ext.kind, minlength=3).tolist()
        created = 2 * (tangent + pair)
        self.created += created
        if not self._within_budget():
            return
        stats.empty_extensions += empty
        stats.tangent_events += tangent

        rows, sides = np.nonzero(ext.placed)
        z = ext.points[rows, sides]
        back, dist = self.prune[level + 1]
        ok = np.ones(len(rows), dtype=bool)
        if len(back):
            delta = paths[rows[:, None], back] - z[:, None]
            miss = np.abs(np.sqrt(row_dots(delta, delta)) - dist)
            ok = ~(miss > self.opts.atol + self.opts.rtol * dist).any(1)
            stats.candidates_pruned += int((~ok).sum())
        rows, sides, z = rows[ok], sides[ok], z[ok]
        if len(rows):
            gap = anchors[rows] - z[:, None]
            res = np.abs(np.sqrt((gap * gap).sum(-1)) - radii).max()
            stats.max_window_residual = max(stats.max_window_residual, float(res))
        stats.nodes_feasible += len(rows)
        stats.nodes_infeasible += created - len(rows)
        hist = stats.child_hist.setdefault(level, [0, 0, 0])
        per_row = np.bincount(rows, minlength=len(paths))
        for count, parents in enumerate(np.bincount(per_row, minlength=3).tolist()):
            hist[count] += parents

        if np.array_equal(rows, np.arange(len(paths))):
            # One child per row, in row order: extend the batch in place.
            paths[:, level] = z
            codes[:, level] = sides
        else:
            paths = paths[rows]
            paths[:, level] = z
            codes = codes[rows]
            codes[:, level] = sides
        normals = ext.normals[rows]
        for start in reversed(range(0, len(rows), BATCH_ROWS)):
            chunk = slice(start, start + BATCH_ROWS)
            stack.append((level + 1, paths[chunk], codes[chunk], normals[chunk]))


def _prefix_leaves(inst: Instance, m: int) -> tuple:
    """Feasible level-m nodes of the search tree of ``inst``, in code order.

    Searches the prefix instance on vertices 1..m, which keeps the edges
    with both ends <= m: a node's feasibility depends on no other edge, so
    its tree is the tree of ``inst`` cut off at level m.  Returns the placed
    points (S, m, K) and the codes (length-m tuples).  Runs with the default
    tolerances, no node budget and no validation: ``inst`` was validated
    when it was solved.
    """
    edges = {e: d for e, d in inst.edges.items() if e[1] <= m}
    search = _Search(Instance(inst.dimension, m, edges, inst.initial_embedding),
                     SolverOptions())
    search.run()
    points = np.asarray(search.solutions).reshape(-1, m, inst.dimension)
    return points, search.codes


def solve(inst: Instance, opts: SolverOptions | None = None) -> SolveResult:
    """Enumerate every embedding of a valid instance.

    Depth-first over batches of tree nodes of one level (see ``_Search``),
    side 0 first; solutions come out sorted by their branch code, so output
    is deterministic.  Raises InvalidInstance (with the validation report
    attached) when validation fails, and NodeBudgetExceeded (with the flagged
    partial result attached) when ``opts.max_nodes`` is hit: the partial
    result holds the leaves of the batches finished before that.
    """
    opts = opts or SolverOptions()
    report = validate(inst)
    if not report.ok:
        raise InvalidInstance(f"instance fails validation: {report.summary()}", report)
    started = time.perf_counter()
    search = _Search(inst, opts)
    search.run()
    stats = search.stats
    stats.wall_time = time.perf_counter() - started
    result = SolveResult(inst, search.solutions, search.codes, stats)
    alarm = WINDOW_RESIDUAL_ALARM * max(inst.edges.values(), default=0.0)
    if stats.max_window_residual > alarm:
        logger.warning("max window residual %.3e exceeds %.3e: numerical breakdown",
                       stats.max_window_residual, alarm)
    violations = stats.uniform_level_violations
    if violations:
        logger.warning(
            "levels %s mix one- and two-child feasible nodes: degenerate instance",
            list(violations))
    if stats.budget_exceeded:
        raise NodeBudgetExceeded(
            f"node budget {opts.max_nodes} exceeded", result=result)
    return result


def recompute_codes(inst: Instance, stack) -> list:
    """Re-derive the side bits of S embeddings (S, n, K) from their coordinates alone.

    The embeddings are taken in chunks of ``max(1, BATCH_ROWS // (n - K))``,
    so a chunk holds at most BATCH_ROWS anchor windows unless one embedding
    has more.  One :func:`_anchor_planes` call places the canonically
    oriented plane of every window of a chunk, and a sign scan over the
    levels recovers the orientation the search chains (see ``_side_bits``).
    Returns the codes as length-n tuples, in the order of the stack; each
    is the code :func:`recompute_code` gives for that embedding.  Raises
    DimensionMismatch for a stack of the wrong shape and DegenerateSpan
    when some window is flat.
    """
    X = np.ascontiguousarray(stack, dtype=float)
    K, n = inst.dimension, inst.n
    if X.ndim != 3 or X.shape[1:] != (n, K):
        raise DimensionMismatch(f"expected embeddings of shape {(n, K)}, got stack {X.shape}")
    bits = np.zeros((len(X), n), dtype=np.int8)
    if n > K:
        step = max(1, BATCH_ROWS // (n - K))
        for start in range(0, len(X), step):
            bits[start : start + step, K:] = _side_bits(X[start : start + step], K)
    return list(map(tuple, bits.tolist()))


def _side_bits(X: np.ndarray, K: int) -> np.ndarray:
    """Side bits of levels K+1..n of the embeddings (S, n, K), shape (S, n - K).

    The search orients the plane of level v by the oriented normal of level
    v-1 (see :func:`hyperplane_through`).  With c the canonical normals,
    that normal is t * c, where t = +1 at level K+1 and wherever
    ``|c_v . c_{v-1}| <= EPS_NORMAL`` (a tie keeps the canonical sign), and
    ``t_v = t_{v-1} * sign(c_v . c_{v-1})`` elsewhere: the parity of the
    negative turns since the last reset.  Negation is exact, so flipping
    the sign of the canonical gap ``c . x - offset`` gives the oriented gap
    bit for bit, and the side bit is 0 on or behind the plane, as in
    :meth:`Hyperplane.side`.  Works on the S * (n - K) windows as one flat
    stack, whose consecutive rows are the consecutive levels of one
    embedding, except where a reset starts the next embedding.
    """
    S, n = X.shape[:2]
    levels = n - K
    rows = S * levels
    windows = X[:, np.arange(levels)[:, None] + np.arange(K)].reshape(rows, K, K)
    normals, offsets, _, _ = _anchor_planes(windows, None)
    # X is C-contiguous, so every row_dots operand has contiguous rows.
    gaps = row_dots(normals, X[:, K:].reshape(rows, K)) - offsets
    turns = row_dots(normals[1:], normals[:-1])
    reset = np.arange(rows) % levels == 0
    reset[1:] |= np.abs(turns) <= EPS_NORMAL
    count = np.cumsum(np.r_[False, turns < -EPS_NORMAL])
    count -= np.maximum.accumulate(np.where(reset, count, 0))
    gaps[count % 2 == 1] *= -1.0
    return (~(gaps <= 0.0)).reshape(S, levels)


def recompute_code(inst: Instance, embedding) -> tuple:
    """Re-derive the side bits of an embedding from its coordinates alone.

    The batch-of-one form of :func:`recompute_codes`.
    """
    return recompute_codes(inst, np.asarray(embedding, dtype=float)[None])[0]


def brute_force(inst: Instance, atol: float = 1e-9, rtol: float = 1e-9) -> list:
    """Independent enumeration oracle.

    Expands all 2**(n-K) side-bit sequences, level by level and in
    ``itertools.product`` order, taking the root on the requested side of
    the oriented anchor hyperplane; a prefix dies only where that side has
    no placement.  No tree, no pruning: once all n
    points are placed, an embedding is kept only if it satisfies *every*
    edge of the instance.  Prefixes are expanded in depth-first chunks of at
    most BATCH_ROWS rows, one :func:`extend_stack` call per chunk and level.
    Shares only the geometric placement primitive with :func:`solve`.
    Returns embeddings in the same canonical order.
    """
    report = validate(inst)
    if not report.ok:
        raise InvalidInstance(f"instance fails validation: {report.summary()}", report)
    K, n = inst.dimension, inst.n
    if n - K > 24:
        raise BudgetExceeded(f"brute force over {n - K} levels is beyond the 2**24 cap")
    radii = {
        v: np.array([inst.edges[(u, v)] for u in inst.window(v)])
        for v in range(K + 1, n + 1)
    }
    paths = np.zeros((1, n, K))
    paths[0, :K] = inst.initial_points()
    found = []
    stack = [(K, paths, None)]
    while stack:
        level, paths, references = stack.pop()
        if level == n:
            bad = stacked_edge_violations(inst, paths, atol, rtol)
            found.extend(path for path, misses in zip(paths, bad) if not misses)
            continue
        ext = extend_stack(paths[:, level - K : level], radii[level + 1], references)
        rows, sides = np.nonzero(ext.placed)
        paths = paths[rows]
        paths[:, level] = ext.points[rows, sides]
        normals = ext.normals[rows]
        for start in reversed(range(0, len(rows), BATCH_ROWS)):
            chunk = slice(start, start + BATCH_ROWS)
            stack.append((level + 1, paths[chunk], normals[chunk]))
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
    lines += _solution_lines(result.branch_codes, result.solutions, n, K)
    return "\n".join(lines) + "\n"


def _solution_lines(codes, solutions, n: int, K: int) -> list:
    """The ``code`` line and the n coordinate lines of every solution, in order.

    Solutions next to each other in code order are leaves of one search
    tree, so they share every row placed above the level where their codes
    first differ.  A row is formatted only where its bits differ from the
    same row of the solution before (compared as uint64, so -0.0 and 0.0,
    or two NaN payloads, count as different); the other rows reuse that
    string.  The cost is one ``%.17g`` per distinct tree node, not per
    solution row.
    """
    stack = np.asarray(solutions, dtype=float).reshape(-1, n, K)
    bits = stack.view(np.uint64)
    fresh = np.ones(stack.shape[:2], dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(-1)
    values = stack[fresh].ravel().tolist()
    template = "\n".join([" ".join(["%.17g"] * K)] * (len(values) // K))
    texts = np.array((template % tuple(values)).split("\n"), dtype=object)
    # Fresh rows are numbered in row-major order, so the string of row
    # (s, j) is the one of the last solution up to s that changed row j:
    # a running max down each column.
    source = np.where(fresh, np.cumsum(fresh).reshape(fresh.shape) - 1, 0)
    np.maximum.accumulate(source, axis=0, out=source)
    block = np.empty((len(stack), n + 1), dtype=object)
    block[:, 0] = ["code " + _code_text(code) for code in codes]
    block[:, 1:] = texts[source]
    return block.ravel().tolist()


#: ``bytes(code).translate`` turns the 0/1 bits of a branch code into digits.
_CODE_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _code_text(code) -> str:
    """A branch code as its string of 0/1 digits, as result and report files write it."""
    return bytes(code).translate(_CODE_DIGITS).decode("ascii")


def parse_result(text: str) -> SolveResult:
    """Parse :func:`serialize_result` output (the instance is None).

    Blank lines and ``#`` comment lines may stand anywhere, and fields are
    separated by any run of whitespace.  The header is read line by line up
    to the ``solutions:`` line; the solution block is then read in bulk (see
    ``_read_solutions``).  Only when a bulk check fails does the line loop
    read the block, to name the line of the error: it raises a line-numbered
    ParseError for a malformed field or histogram row, a code whose length
    is not n and a coordinate that is not a finite number.
    """
    lines = text.splitlines()
    reader = _LineReader()
    body = reader.read(lines, 0, until_solutions=True)
    bulk = _read_solutions(lines[body:], reader.K, reader.n, reader.count)
    if bulk is None:
        reader.read(lines, body)
        return reader.result(text)
    stack, codes = bulk
    return SolveResult(None, list(stack), codes, reader.stats)


_INT_FIELDS = frozenset({
    "solution_count", "nodes_feasible", "nodes_infeasible",
    "candidates_pruned", "empty_extensions", "tangent_events",
})


class _LineReader:
    """The grammar of a result file, applied one line at a time."""

    def __init__(self):
        self.stats = SolveStats()
        self.K = self.n = self.count = None
        self.mode = None
        self.solutions: list = []
        self.codes: list = []
        self.code_lines: list = []
        self.current: list | None = None

    def read(self, lines: list, start: int, until_solutions: bool = False) -> int:
        """Feed ``lines[start:]``, skipping blank and comment lines.

        With ``until_solutions``, stops after the ``solutions:`` line and
        returns its index plus one; otherwise returns ``len(lines)``.
        """
        for lineno, raw in enumerate(itertools.islice(lines, start, None), start + 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            self.feed(line, lineno)
            if until_solutions and self.mode == "solutions":
                return lineno
        return len(lines)

    def feed(self, line: str, lineno: int) -> None:
        if line.startswith("code "):
            if self.mode != "solutions":
                raise ParseError("'code' line outside solutions block", lineno)
            bits = line[5:].strip()
            if not bits or set(bits) - {"0", "1"}:
                raise ParseError(f"bad code {bits!r}", lineno)
            if self.n is None or len(bits) != self.n:
                raise ParseError(f"code of length {len(bits)}, expected n = {self.n}", lineno)
            self.codes.append(tuple(int(b) for b in bits))
            self.code_lines.append(lineno)
            self.current = []
            self.solutions.append(self.current)
        elif ":" in line and self.mode != "solutions":
            key, _, rest = line.partition(":")
            self.field(key.strip(), rest.strip(), lineno)
        elif self.mode == "hist":
            try:
                lvl, c0, c1, c2 = map(int, line.split())  # ValueError unless 4 ints
            except ValueError:
                raise ParseError(f"bad histogram line {line!r}", lineno) from None
            self.stats.child_hist[lvl] = [c0, c1, c2]
        elif self.mode == "solutions":
            if self.current is None:
                raise ParseError("coordinate row before any 'code' line", lineno)
            parts = line.split()
            if self.K is None or len(parts) != self.K:
                raise ParseError(f"expected {self.K} coordinates, got {len(parts)}", lineno)
            try:
                self.current.append([float(p) for p in parts])
            except ValueError:
                raise ParseError(f"bad coordinate in {line!r}", lineno) from None
        else:
            raise ParseError(f"unexpected line {line!r}", lineno)

    def field(self, key: str, rest: str, lineno: int) -> None:
        if key == "format":
            if not rest.startswith("dgp-result"):
                raise ParseError(f"not a result file (format {rest!r})", lineno)
        elif key == "status":
            self.stats.budget_exceeded = rest == "budget-exceeded"
        elif key in ("child_hist", "solutions"):
            self.mode = "hist" if key == "child_hist" else "solutions"
        elif key in ("dimension", "n", "max_window_residual") or key in _INT_FIELDS:
            try:
                value = float(rest) if key == "max_window_residual" else int(rest)
            except ValueError:
                raise ParseError(f"bad value {rest!r} for {key!r}", lineno) from None
            if key == "dimension":
                self.K = value
            elif key == "n":
                self.n = value
            elif key == "solution_count":
                self.count = value
            else:
                setattr(self.stats, key, value)
        else:
            raise ParseError(f"unknown field {key!r}", lineno)

    def result(self, text: str) -> SolveResult:
        K, n, count, solutions = self.K, self.n, self.count, self.solutions
        if K is None or n is None or count is None:
            raise ParseError("missing required result fields")
        if len(solutions) != count:
            raise ParseError(f"solution_count says {count}, file has {len(solutions)}")
        for rows in solutions:
            if len(rows) != n:
                raise ParseError(f"solution has {len(rows)} rows, expected {n}")
        stack = np.asarray(solutions, dtype=float)  # (S, n, K): every shape was checked
        if solutions and not np.isfinite(stack).all():
            index, row = np.argwhere(~np.isfinite(stack).all(-1))[0].tolist()
            raise ParseError("non-finite coordinate",
                             _row_line(text, self.code_lines[index], row))
        return SolveResult(None, list(stack), self.codes, self.stats)


def _read_solutions(body: list, K, n, count):
    """Bulk read of the lines after ``solutions:``: ``(stack, codes)`` or None.

    Once blank and comment lines are dropped, the body must hold ``count`` blocks of
    one ``code`` line and n coordinate lines, so the code lines are taken by
    stride n + 1.  Their bits are checked in one buffer.  Solutions share
    most rows (see ``_solution_lines``), so each distinct coordinate line is
    read once and the rows are gathered by index.  The distinct lines are
    joined with a ``;`` token after each line and split once.  Every line
    holds K tokens iff every (K+1)-th token is a ``;``, that is iff no ``;``
    is left once those are dropped: the float conversion of the rest checks
    that.  Python's ``float`` reads the tokens, so the values are those of
    the line loop.  Returns None, and leaves naming the error to the line
    loop, when any check fails.
    """
    if K is None or n is None or count is None or K < 1 or n < 1:
        return None
    kept = [line for line in map(str.strip, body) if line and line[0] != "#"]
    if len(kept) != count * (n + 1):
        return None
    heads = kept[:: n + 1]
    if not all(head.startswith("code ") for head in heads):
        return None
    bits = [head[5:].lstrip() for head in heads]
    if any(len(b) != n for b in bits):
        return None
    try:
        flat = np.frombuffer("".join(bits).encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    if ((flat != ord("0")) & (flat != ord("1"))).any():
        return None
    del kept[:: n + 1]
    index: dict = {}
    rows = [index.setdefault(line, len(index)) for line in kept]
    tokens = " ; ".join([*index, ""]).split()
    if len(tokens) != len(index) * (K + 1):
        return None
    del tokens[K :: K + 1]
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    codes = (flat - ord("0")).reshape(count, n)
    return values.reshape(-1, K)[rows].reshape(count, n, K), list(map(tuple, codes.tolist()))


def _row_line(text: str, code_line: int, row: int) -> int:
    """Line number of coordinate row ``row`` of the solution coded on ``code_line``.

    As in :func:`parse_result`, every line after a code line that is not
    blank or a comment is a coordinate row of that solution.
    """
    rows = (lineno for lineno, raw in enumerate(text.splitlines()[code_line:], code_line + 1)
            if raw.strip() and not raw.strip().startswith("#"))
    return next(itertools.islice(rows, row, None))
