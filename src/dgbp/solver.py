"""Branch-and-prune enumeration of all embeddings of an instance.

The search tree places one vertex per level.  Levels 1..K are seeded from the
initial embedding as a chain of feasible side-0 nodes (each counted with an
infeasible side-1 twin), so codes have length n and start with K zeros.
From level K+1 on, the window anchors define a hyperplane and a two-point
sphere intersection; each candidate is kept unless some pruning edge (an
edge reaching in front of the window) rejects it.  A node's *side* bit
records which half-space of the oriented anchor hyperplane its point fell
in, with the orientation chained so that consecutive normals have
nonnegative dot product.  All nodes of a level place their vertex from
one row of the instance's level table and share its pruning edges, so the
search (``_walk``, one loop over a stack of batches) expands whole batches
of same-level nodes at once, depth first over batches of at most
BATCH_ROWS.

Also provides an independent exhaustive oracle (``brute_force``) that
expands every side-bit sequence without pruning and then checks every edge,
and plain serialization of results.
"""

from __future__ import annotations

import logging
import math
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
from .geometry import _EMPTY, _TANGENT, EPS_NORMAL, _anchor_planes, extend_stack, row_dots
from .instance import Instance, _records, stacked_edge_violations, validate

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

    ``solutions`` is one C-contiguous float (S, n, K) array, also when S = 0,
    whichever function made the result.  ``branch_codes[i]`` is the n-bit
    tuple of side bits along the path to ``solutions[i]``; its first K bits
    are always 0.  The codes stay a list of tuples: callers hash them into
    sets and bisect them.  ``instance`` is the solved instance, or None for
    a result read from a file.
    """

    instance: Instance | None
    solutions: np.ndarray
    branch_codes: list
    stats: SolveStats

    @property
    def solution_count(self) -> int:
        return len(self.solutions)


#: Most rows one batch of the search, or one call of the placement
#: primitive, may hold; a wider level is expanded in depth-first chunks.
BATCH_ROWS = 1024


def _walk(inst: Instance, opts: SolverOptions, depth: int) -> tuple:
    """Depth-first walk over batches of equal-level tree nodes, down to level ``depth``.

    A batch is ``(level, paths, codes, references)``: row f holds the
    placed points ``paths[f, :level]`` of one feasible node, its side bits
    ``codes[f, :level]`` and the normal its children's plane is oriented by.
    No node is kept beyond its batch.  All rows of a level share their row
    of the instance's level table, pruning edges included, so one batch is
    expanded by one :func:`extend_stack` call, one prune check over the
    level's pruning edges and one window residual check.  Feasible
    children, in row order and side 0 first, are cut into chunks of at most
    BATCH_ROWS rows, pushed last first.  Batches at one level are thus
    expanded in lexicographic code order, which is the preorder of a
    node-by-node depth-first search: leaves come out sorted by code.  Where
    every row keeps exactly one child, the children are written into the
    batch's own arrays, so a deep narrow chain does not copy its O(n) paths
    at every level; a batch is copied only where rows fork or die.  The
    walk stops at level ``depth``, ``inst.n`` for the whole tree.  Returns
    the leaves (S, depth, K), their codes and the search's SolveStats.
    """
    K, n = inst.dimension, depth
    levels = inst._levels
    budget = math.inf if opts.max_nodes is None else opts.max_nodes
    stats = SolveStats(nodes_feasible=K, nodes_infeasible=K,
                       child_hist={lvl: [0, 1, 0] for lvl in range(1, K)})
    created = 2 * K
    paths = np.zeros((1, n, K))
    paths[0, :K] = inst.initial_points()
    stack = [(K, paths, np.zeros((1, n), dtype=np.int8), None)]
    # Leaf batches in code order; the empty one sizes a result with none.
    leaves, leaf_codes = [np.empty((0, n, K))], []
    while stack and created <= budget:
        level, paths, codes, references = stack.pop()
        if level == n:
            leaves.append(paths)
            leaf_codes.extend(map(tuple, codes.tolist()))
            continue
        anchors = paths[:, level - K : level]
        radii, mu, h2, (back, dist) = (part[level - K] for part in levels)
        try:
            ext = extend_stack(anchors, mu, h2, references)
        except DegenerateSpan as exc:
            raise DegenerateSpan(
                f"degenerate anchors while placing vertex {level + 1}: {exc}") from exc
        # The budget counts both children of every row of a non-empty
        # level, feasible or not; it is checked before they are created.
        children = 2 * len(paths) * (ext.kind != _EMPTY)
        created += children
        if created > budget:
            break
        stats.empty_extensions += len(paths) * (ext.kind == _EMPTY)
        stats.tangent_events += len(paths) * (ext.kind == _TANGENT)

        rows, sides = np.nonzero(ext.placed)
        z = ext.points[rows, sides]
        ok = np.ones(len(rows), dtype=bool)
        if len(back):
            delta = paths[rows[:, None], back] - z[:, None]
            miss = np.abs(np.sqrt(row_dots(delta, delta)) - dist)
            ok = ~(miss > opts.atol + opts.rtol * dist).any(1)
            stats.candidates_pruned += int((~ok).sum())
        rows, sides, z = rows[ok], sides[ok], z[ok]
        if len(rows):
            gap = anchors[rows] - z[:, None]
            res = np.abs(np.sqrt((gap * gap).sum(-1)) - radii).max()
            stats.max_window_residual = max(stats.max_window_residual, float(res))
        stats.nodes_feasible += len(rows)
        stats.nodes_infeasible += children - len(rows)
        hist = stats.child_hist.setdefault(level, [0, 0, 0])
        per_row = np.bincount(rows, minlength=len(paths))
        for count, parents in enumerate(np.bincount(per_row, minlength=3).tolist()):
            hist[count] += parents

        if (per_row == 1).all():  # rows == arange: each row is extended in place
            normals = ext.normals
        else:
            paths, codes, normals = paths[rows], codes[rows], ext.normals[rows]
        paths[:, level] = z
        codes[:, level] = sides
        for start in reversed(range(0, len(rows), BATCH_ROWS)):
            chunk = slice(start, start + BATCH_ROWS)
            stack.append((level + 1, paths[chunk], codes[chunk], normals[chunk]))
    stats.budget_exceeded = created > budget
    return np.concatenate(leaves), leaf_codes, stats


def _prefix_leaves(inst: Instance, m: int) -> tuple:
    """Feasible level-m nodes of the search tree of ``inst``, in code order.

    The search stops at level m: a node's feasibility depends on no edge
    reaching past its level, so this is the tree of the prefix instance on
    vertices 1..m, read from the level table of ``inst``.  Returns the
    placed points (S, m, K) and the codes (length-m tuples).  Runs with the
    default tolerances, no node budget and no validation: ``inst`` was
    validated when it was solved.
    """
    return _walk(inst, SolverOptions(), m)[:2]


def solve(inst: Instance, opts: SolverOptions | None = None) -> SolveResult:
    """Enumerate every embedding of a valid instance.

    Depth-first over batches of tree nodes of one level (see ``_walk``),
    side 0 first; solutions come out sorted by their branch code, so output
    is deterministic.  Raises InvalidInstance (with the validation report
    attached) when validation within ``opts.atol``/``opts.rtol`` fails, and
    NodeBudgetExceeded (with the flagged partial result attached) when
    ``opts.max_nodes`` is hit: the partial result holds the leaves of the
    batches finished before that.
    """
    opts = opts or SolverOptions()
    report = validate(inst, opts.atol, opts.rtol)
    if not report.ok:
        raise InvalidInstance(f"instance fails validation: {report.summary()}", report)
    started = time.perf_counter()
    solutions, codes, stats = _walk(inst, opts, inst.n)
    stats.wall_time = time.perf_counter() - started
    result = SolveResult(inst, solutions, codes, stats)
    alarm = WINDOW_RESIDUAL_ALARM * inst._edge_arrays[1].max(initial=0.0)
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
    X = np.asarray(stack, dtype=float)
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
    v-1 (see :func:`_anchor_planes` for the orientation and side rules).
    With c the canonical normals, that normal is t * c, where t = +1 at
    level K+1 and wherever ``|c_v . c_{v-1}| <= EPS_NORMAL`` (a tie keeps
    the canonical sign), and ``t_v = t_{v-1} * sign(c_v . c_{v-1})``
    elsewhere: the parity of the negative turns since the last reset.
    Negation is exact, so flipping the sign of the canonical gap
    ``c . (x_v - x_{v-1})`` gives the oriented gap bit for bit, and the side
    bit is 0 on or behind the plane.  Works on the S * (n - K) windows as one
    flat stack, whose consecutive rows are the consecutive levels of one
    embedding, except where a reset starts the next embedding.
    """
    S, n = X.shape[:2]
    levels = n - K
    rows = S * levels
    windows = X[:, np.arange(levels)[:, None] + np.arange(K)].reshape(rows, K, K)
    normals = _anchor_planes(windows, None)
    gaps = row_dots(normals, (X[:, K:] - X[:, K - 1 : -1]).reshape(rows, K))
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


def brute_force(inst: Instance, atol: float = 1e-9, rtol: float = 1e-9) -> np.ndarray:
    """Independent enumeration oracle.

    Expands all 2**(n-K) side-bit sequences, level by level and in
    ``itertools.product`` order, taking the root on the requested side of
    the oriented anchor hyperplane; a prefix dies only where that side has
    no placement.  No tree, no pruning: once all n
    points are placed, an embedding is kept only if it satisfies *every*
    edge of the instance.  Prefixes are expanded in depth-first chunks of at
    most BATCH_ROWS rows, one :func:`extend_stack` call per chunk and level.
    Shares only the instance's level table and the placement primitive with
    :func:`solve`.
    Returns the embeddings as one (S, n, K) array, in the same canonical
    order.  Raises BudgetExceeded when n - K > 24, before validating, and
    InvalidInstance when validation fails.
    """
    K, n = inst.dimension, inst.n
    if n - K > 24:
        raise BudgetExceeded(f"brute force over {n - K} levels is beyond the 2**24 cap")
    report = validate(inst, atol, rtol)
    if not report.ok:
        raise InvalidInstance(f"instance fails validation: {report.summary()}", report)
    _, mu, h2, _ = inst._levels
    paths = np.zeros((1, n, K))
    paths[0, :K] = inst.initial_points()
    found = [np.empty((0, n, K))]
    stack = [(K, paths, None)]
    while stack:
        level, paths, references = stack.pop()
        if level == n:
            bad = stacked_edge_violations(inst, paths, atol, rtol)
            found.append(paths[[not misses for misses in bad]])
            continue
        ext = extend_stack(paths[:, level - K : level], mu[level - K], h2[level - K], references)
        rows, sides = np.nonzero(ext.placed)
        paths = paths[rows]
        paths[:, level] = ext.points[rows, sides]
        normals = ext.normals[rows]
        for start in reversed(range(0, len(rows), BATCH_ROWS)):
            chunk = slice(start, start + BATCH_ROWS)
            stack.append((level + 1, paths[chunk], normals[chunk]))
    return np.concatenate(found)


#: The typed header fields, in file order; the first three size the solution block.
_FIELD_TYPES = {
    "dimension": int, "n": int, "solution_count": int,
    "nodes_feasible": int, "nodes_infeasible": int, "candidates_pruned": int,
    "empty_extensions": int, "tangent_events": int, "max_window_residual": float,
}


def serialize_result(result: SolveResult) -> str:
    """Deterministic plain-text form of a solve result (no timing data)."""
    stats = result.stats
    S, n, K = result.solutions.shape
    if stats.budget_exceeded:
        status = "budget-exceeded"
    elif S:
        status = "solved"
    else:
        status = "infeasible"
    values = {**vars(stats), "dimension": K, "n": n, "solution_count": S}
    lines = ["format: dgp-result 1", f"status: {status}"]
    lines += [f"{key}: {values[key]:{'.17g' if kind is float else 'd'}}"
              for key, kind in _FIELD_TYPES.items()]
    lines.append("child_hist:")
    lines += [f"{lvl} {c0} {c1} {c2}" for lvl, (c0, c1, c2) in sorted(stats.child_hist.items())]
    lines.append("solutions:")
    block = np.empty((S, n + 1), dtype=object)
    block[:, 0] = _code_lines(result.branch_codes, "code ")
    block[:, 1:] = _row_texts(result.solutions, " ")
    lines += block.ravel().tolist()
    return "\n".join(lines) + "\n"


def _row_texts(stack: np.ndarray, sep: str) -> np.ndarray:
    """The text of every row of an (S, n, K) stack: K ``%.17g`` fields joined by ``sep``.

    Returns an (S, n) array of strings.  Solutions next to each other in
    code order are leaves of one search tree, so they share every row placed
    above the level where their codes first differ.  A row is formatted only
    where its bits differ from the same row of the solution before (compared
    as uint64, so -0.0 and 0.0, or two NaN payloads, count as different);
    the other rows reuse that string.  The cost is one ``%.17g`` per
    distinct tree node, not per solution row.
    """
    S, n, K = stack.shape
    bits = stack.view(np.uint64)
    fresh = np.ones((S, n), dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(-1)
    values = stack[fresh].ravel().tolist()
    template = "\n".join([sep.join(["%.17g"] * K)] * (len(values) // K))
    texts = np.array((template % tuple(values)).split("\n"), dtype=object)
    return texts[_last_fresh(fresh)]


def _last_fresh(fresh: np.ndarray) -> np.ndarray:
    """For each (s, j) of an (S, n) mask, the row-major number of the last fresh (s', j), s' <= s.

    A running max down each column of the fresh entries' numbers.
    """
    source = np.where(fresh, np.cumsum(fresh).reshape(fresh.shape) - 1, 0)
    np.maximum.accumulate(source, axis=0, out=source)
    return source


#: ``bytes.translate`` turns the 0/1 bits of branch codes into digits.
_CODE_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _code_lines(codes, head: str = "") -> list:
    """Each branch code as ``head`` and its 0/1 digits, as result and report files write it.

    All codes are joined, with ``head`` after each line break, and
    translated to digits at once.
    """
    if not codes:
        return []
    joined = head.encode() + ("\n" + head).encode().join(map(bytes, codes))
    return joined.translate(_CODE_DIGITS).decode("ascii").split("\n")


#: The most float64 values one (S, n, K) array may hold per solution, n * K.
_MAX_ROW_VALUES = np.iinfo(np.intp).max // 8


def parse_result(text: str | bytes) -> SolveResult:
    """Parse :func:`serialize_result` output, as ``str`` or ``bytes`` (the instance is None).

    The lines are the records of ``instance._records``, read as bytes.  The
    header is read record by record up to the ``solutions:`` line
    (``_read_header``), then the records after it in bulk (``_read_bulk``);
    a block that fails a bulk check is read record by record from the same
    generator (``_read_solution_lines``) to name the line of the error.
    Text that is not UTF-8, a malformed field or histogram row, a size no
    array can hold, a code whose length is not n and a coordinate that is
    not a finite number raise a line-numbered ParseError.
    """
    data, linenos, starts, ends = _records(text)
    records = ((int(lineno), data[begin:end]) for lineno, begin, end in zip(linenos, starts, ends))
    K, n, count, stats, first = _read_header(records)
    read = _read_bulk(data, starts[first:], ends[first:], K, n, count)
    if read is None:
        read = _read_solution_lines(records, K, n, count)
    return SolveResult(None, *read, stats)


def _read_header(records) -> tuple:
    """The header of a result file, read from its records up to the ``solutions:`` line.

    ``records`` yields ``(lineno, line)`` for each record of
    ``instance._records``; none after ``solutions:`` is taken.  Returns
    ``(K, n, count, stats, first)``: the ``dimension``, ``n`` and
    ``solution_count`` fields (None where missing), the other fields as
    SolveStats, and the number of records taken, so that record ``first``
    is the one after ``solutions:`` (after the last when there is none).  A
    ``:`` line is a field and, after ``child_hist:``, any other line a
    histogram row, read from bytes.  A ``dimension`` or ``n`` below 1 is an
    error, so every result has a shape, and so is one that makes n * K more
    than an (S, n, K) float array can hold.
    """
    stats = SolveStats()
    sizes = dict.fromkeys(("dimension", "n", "solution_count"))
    hist = False
    taken = 0
    for taken, (lineno, line) in enumerate(records, 1):
        if line.startswith(b"code "):
            raise ParseError("'code' line outside solutions block", lineno)
        if ord(":") not in line:
            if not hist:
                raise ParseError(f"unexpected line {line.decode()!r}", lineno)
            try:
                lvl, c0, c1, c2 = map(int, line.split())  # ValueError unless 4 ints
            except ValueError:
                raise ParseError(f"bad histogram line {line.decode()!r}", lineno) from None
            stats.child_hist[lvl] = [c0, c1, c2]
            continue
        key, _, rest = line.partition(b":")
        key, rest = key.strip().decode(), rest.strip()
        if key == "solutions":
            return *sizes.values(), stats, taken
        if key == "format":
            if not rest.startswith(b"dgp-result"):
                raise ParseError(f"not a result file (format {rest.decode()!r})", lineno)
        elif key == "status":
            stats.budget_exceeded = rest == b"budget-exceeded"
        elif key == "child_hist":
            hist = True
        elif key in _FIELD_TYPES:
            try:
                value = _FIELD_TYPES[key](rest)
            except ValueError:
                raise ParseError(f"bad value {rest.decode()!r} for {key!r}", lineno) from None
            if key in ("dimension", "n"):
                if value < 1:
                    raise ParseError(f"{key} must be >= 1, got {value}", lineno)
                limit = _MAX_ROW_VALUES // (sizes["n" if key == "dimension" else "dimension"] or 1)
                if value > limit:
                    raise ParseError(f"{key} must be <= {limit}, got {value}", lineno)
            if key in sizes:
                sizes[key] = value
            else:
                setattr(stats, key, value)
        else:
            raise ParseError(f"unknown field {key!r}", lineno)
    return *sizes.values(), stats, taken


def _read_solution_lines(records, K, n, count) -> tuple:
    """The solution block read line by line from ``records``: ``(stack, codes)``.

    The grammar ``_read_bulk`` checks in bulk, applied to the records left
    after the header one at a time, so that each error names its line: a
    ``code`` line of n 0/1 digits starts a solution, and every other record
    is one coordinate row of K numbers.  Once the block is read, the header
    must have given K, n and the count, the count and every solution's rows
    must match, and the first non-finite coordinate is reported.
    """
    codes, sizes, rows = [], [], []
    nonfinite = None
    for lineno, line in records:
        if line.startswith(b"code "):
            bits = line[5:].strip()
            if not bits or bits.strip(b"01"):
                raise ParseError(f"bad code {bits.decode()!r}", lineno)
            if n is None or len(bits) != n:
                raise ParseError(f"code of length {len(bits)}, expected n = {n}", lineno)
            codes.append(tuple(map(int, bits.decode())))
            sizes.append(0)
            continue
        if not sizes:
            raise ParseError("coordinate row before any 'code' line", lineno)
        parts = line.split()
        if K is None or len(parts) != K:
            raise ParseError(f"expected {K} coordinates, got {len(parts)}", lineno)
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad coordinate in {line.decode()!r}", lineno) from None
        if nonfinite is None and not all(map(math.isfinite, row)):
            nonfinite = lineno
        rows.append(row)
        sizes[-1] += 1
    if K is None or n is None or count is None:
        raise ParseError("missing required result fields")
    if len(codes) != count:
        raise ParseError(f"solution_count says {count}, file has {len(codes)}")
    for size in sizes:
        if size != n:
            raise ParseError(f"solution has {size} rows, expected {n}")
    if nonfinite is not None:
        raise ParseError("non-finite coordinate", nonfinite)
    # Every check passed, so there are count * n rows of K values each.
    return np.reshape(rows, (count, n, K)), codes


def _read_bulk(data: bytes, starts, ends, K, n, count):
    """The solution block from the byte bounds of its records, or None.

    Returns ``(stack, codes)`` when the block passes every check, and None,
    leaving the error to ``_read_solution_lines``, when any fails.  The
    records must be ``count`` blocks of one ``code`` line and n coordinate
    lines, so nothing is sized by n before that count bounds it.  The code
    lines, taken by stride n + 1, must end in n bits, which are checked as
    one (count, n) matrix.
    Neighbours in code order share every row above the first bit where
    their codes differ (see ``_row_texts``).  That prefix is predicted from
    the codes and confirmed by one comparison of the bytes spanning it in
    the two solutions, since equal bytes cut into equal lines; a solution
    whose prefix is not confirmed has every row read.  The rows read are
    joined with a ``;`` token after each and split once.  Every row holds K
    tokens iff every (K+1)-th token is a ``;``, that is iff no ``;`` is left
    once those are dropped: the float conversion of the rest checks that.
    Python's ``float`` reads the tokens, so the values are those of
    ``_read_solution_lines``.  Each row is then gathered from the last
    solution up to it that read it (``_last_fresh``).
    """
    if K is None or n is None or count is None or len(starts) != count * (n + 1):
        return None
    if not count:
        return np.empty((0, n, K)), []
    b = np.frombuffer(data, dtype=np.uint8)
    starts, ends = starts.reshape(count, n + 1), ends.reshape(count, n + 1)
    heads, head_ends = starts[:, 0], ends[:, 0]
    exact = head_ends - heads == n + 5
    if not (b[heads[exact, None] + np.arange(5)] == np.frombuffer(b"code ", np.uint8)).all():
        return None
    for i in np.flatnonzero(~exact).tolist():
        head = data[heads[i] : head_ends[i]]
        if not head.startswith(b"code ") or len(head[5:].lstrip()) != n:
            return None
    bits = b[head_ends[:, None] - n + np.arange(n)] - ord("0")
    if (bits > 1).any():
        return None
    starts, ends = starts[:, 1:], ends[:, 1:]
    fresh = np.ones((count, n), dtype=bool)
    split = (bits[1:] != bits[:-1]).argmax(1)
    later = np.flatnonzero(split) + 1
    prefix = split[later - 1]
    begin, end = starts[later, 0], ends[later, prefix - 1]
    before, before_end = starts[later - 1, 0], ends[later - 1, prefix - 1]
    same = end - begin == before_end - before
    same[same] = [data[i:j] == data[k:m] for i, j, k, m in zip(
        begin[same].tolist(), end[same].tolist(), before[same].tolist(),
        before_end[same].tolist())]
    fresh[later[same]] = np.arange(n) >= prefix[same, None]
    rows = [data[i:j] for i, j in zip(starts[fresh].tolist(), ends[fresh].tolist())]
    tokens = b" ; ".join([*rows, b""]).split()
    if len(tokens) != len(rows) * (K + 1):
        return None
    del tokens[K :: K + 1]
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return values.reshape(-1, K)[_last_fresh(fresh)], list(zip(*bits.T.tolist()))
