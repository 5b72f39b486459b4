"""Instance model for vertex-ordered distance geometry problems in R^K.

An instance fixes a dimension K, vertices 1..n ordered by rank, one positive
distance per edge, and coordinates for the first K vertices.  Every vertex
past rank K must be joined to its K immediate predecessors (its *window*),
whose pairwise distances must form a nondegenerate simplex; placement of the
vertex then reduces to intersecting K spheres.  Edges reaching further back
than the window are *pruning* edges: they never help place a vertex, they
only discard candidate placements.

Instances are immutable after construction.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GenericityFailure, ParseError
from .geometry import _flat, _gram, level_table, row_dots

#: Windows whose simplex volume falls below this are rejected when sampling
#: random instances, turning "generic position" into a constructive bound.
GENERICITY_MIN_VOLUME = 1e-6


@dataclass(frozen=True)
class Instance:
    """A K-dimensional instance with vertices 1..n in rank order.

    ``edges`` maps unordered pairs (stored as ``(min, max)`` tuples) to
    distances, read-only so that the tables derived from it stay true;
    ``initial_embedding`` gives the coordinates of vertices 1..K.
    """

    dimension: int
    n: int
    edges: dict
    initial_embedding: tuple

    def __post_init__(self):
        normalised = {}
        for (u, v), d in dict(self.edges).items():
            u, v = int(u), int(v)
            key = (u, v) if u < v else (v, u)
            normalised[key] = float(d)
        object.__setattr__(self, "edges", types.MappingProxyType(normalised))
        emb = tuple(tuple(float(c) for c in row) for row in self.initial_embedding)
        object.__setattr__(self, "initial_embedding", emb)

    def predecessors(self, v: int) -> list[int]:
        """Adjacent predecessors of ``v`` in rank order."""
        ends, _, by_end, starts = self._edge_arrays[:4]
        rows = by_end[starts[v - 1] : starts[v]] if 0 < v < len(starts) else []
        return (ends[rows, 0] + 1).tolist()

    @functools.cached_property
    def _edge_arrays(self) -> tuple:
        """The edges, sorted once by (u, v), as ``(ends, d, by_end, starts, window)``.

        0-based ends (|E|, 2) and distances (|E|,); v's edges to predecessors
        1 <= u < v <= n are rows ``by_end[starts[v-1]:starts[v]]``, in rank
        order; ``window[v-1, k]`` (n, K+1) is the row of edge {v-k, v}, or -1.
        """
        K, n, m = self.dimension, max(self.n, 0), len(self.edges)
        try:
            ends = np.fromiter(self.edges, dtype=np.dtype((np.int64, 2)), count=m)
        except OverflowError:  # an end beyond int64 is out of range, kept exact for validate
            ends = np.array(list(self.edges), dtype=object)
        order = np.lexsort((ends[:, 1], ends[:, 0]))
        ends = ends[order] - 1
        d = np.fromiter(self.edges.values(), dtype=float, count=m)[order]
        u, v = ends.T
        by_end = np.argsort(v, kind="stable")
        by_end = by_end[((0 <= u) & (u < v) & (v < n))[by_end]]
        u, v = ends[by_end].astype(np.int64, copy=False).T  # ends in range fit int64
        starts = np.searchsorted(v, np.arange(n + 1))
        window = np.full((n, max(K, 0) + 1), -1)
        near = v - u <= K
        window[v[near], (v - u)[near]] = by_end[near]
        for array in (ends, d, by_end, starts, window):
            array.flags.writeable = False
        return ends, d, by_end, starts, window

    @functools.cached_property
    def _levels(self) -> tuple:
        """The level table ``(radii, mu, h2, prune)``: row v-K-1 places vertex v.

        Window distances (n-K, K), :func:`geometry.level_table` of all
        levels, and v's pruning edges: ``prune[v-K-1]`` holds the 0-based
        ranks (int) of v's predecessors u < v-K, in rank order, and their
        distances.  Built on first use, which must follow :func:`validate`.
        """
        K, n = self.dimension, self.n
        ends, d, by_end = self._edge_arrays[:3]
        D = _clique_distances(self)[0]
        rows = by_end[ends[by_end, 0] < ends[by_end, 1] - K]
        # Cut before each vertex K+1..n; no vertex up to K has pruning edges.
        cuts = np.searchsorted(ends[rows, 1], np.arange(K, n))
        prune = list(zip(np.split(ends[rows, 0], cuts)[1:], np.split(d[rows], cuts)[1:]))
        return (D[:, :-1, -1], *level_table(D * D), prune)

    def initial_points(self) -> np.ndarray:
        return np.asarray(self.initial_embedding, dtype=float)


class ViolationCode(Enum):
    NONPOSITIVE_DISTANCE = "NonpositiveDistance"
    MISSING_WINDOW_EDGE = "MissingWindowEdge"
    TOO_FEW_PREDECESSORS = "TooFewPredecessors"
    DEGENERATE_SIMPLEX = "DegenerateSimplex"
    INVALID_INITIAL_EMBEDDING = "InvalidInitialEmbedding"
    MALFORMED_INSTANCE = "MalformedInstance"


@dataclass(frozen=True)
class Violation:
    code: ViolationCode
    vertex: int | None
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.code.value}({v.vertex}): {v.detail}" for v in self.violations)


def _size_report(inst: Instance) -> ValidationReport:
    """The check that must pass before anything is sized by ``inst.n``.

    Past K each vertex needs its window edges, so an instance with fewer
    edges than vertices past K (or with K < 1) fails with one
    MalformedInstance violation, before any per-vertex table is built.
    :func:`validate` starts with it; ``dgbp verify`` runs it alone.
    """
    K, n, m = inst.dimension, inst.n, len(inst.edges)
    if K >= 1 and n - K <= m:
        return ValidationReport(())
    detail = (f"dimension {K} < 1" if K < 1 else
              f"n = {n} has {n - K} vertices past dimension {K} but only {m} edges")
    return ValidationReport((Violation(ViolationCode.MALFORMED_INSTANCE, None, detail),))


def validate(inst: Instance, atol: float = 1e-9, rtol: float = 1e-9) -> ValidationReport:
    """Check the window-structure conditions of a well-formed instance.

    Violations are returned as data, never raised: the window of each vertex
    past rank K must be a complete clique whose distance simplex embeds and
    is not flat against the longest edge among the window and the vertex
    (so a window tiny next to the radii placing the vertex fails at any
    scale); each such vertex needs at least K adjacent predecessors;
    distances must be positive; and the initial embedding must realise
    every edge among the first K vertices.
    """
    out = []
    K, n = inst.dimension, inst.n
    report = _size_report(inst)
    if not report.ok:
        return report
    if n < K:
        out.append(Violation(ViolationCode.MALFORMED_INSTANCE, None, f"n = {n} < dimension {K}"))

    ends, dist, by_end, starts = inst._edge_arrays[:4]
    outside = np.ones(len(dist), dtype=bool)
    outside[by_end] = False  # an edge in range is a predecessor row of its vertex v
    nonpositive = ~((dist > 0.0) & (dist < math.inf))
    for j in np.flatnonzero(outside | nonpositive).tolist():
        (u, v), d = (ends[j] + 1).tolist(), dist[j].item()
        if outside[j]:
            out.append(Violation(ViolationCode.MALFORMED_INSTANCE, None,
                                 f"edge {{{u}, {v}}} out of range"))
        if nonpositive[j]:
            out.append(Violation(ViolationCode.NONPOSITIVE_DISTANCE, None,
                                 f"edge {{{u}, {v}}} has distance {d!r}"))

    emb_ok = len(inst.initial_embedding) == K and all(
        len(row) == K and all(math.isfinite(c) for c in row) for row in inst.initial_embedding
    )
    if not emb_ok:
        out.append(Violation(ViolationCode.INVALID_INITIAL_EMBEDDING, None,
                             f"initial embedding must be {K} finite points of R^{K}"))
    else:
        pts = inst.initial_points()
        among_first = np.flatnonzero(~outside & (ends[:, 1] < K))
        for (u, v), d in zip((ends[among_first] + 1).tolist(), dist[among_first].tolist()):
            res = abs(float(np.linalg.norm(pts[u - 1] - pts[v - 1])) - d)
            if res > atol + rtol * d:
                out.append(Violation(
                    ViolationCode.INVALID_INITIAL_EMBEDDING, v,
                    f"edge {{{u}, {v}}}: embedded distance off by {res:.3e}"))

    D, present = _clique_distances(inst)
    # A clique missing an edge (NaN) or holding a distance reported above has no simplex to test.
    tested = ((D > 0.0) & np.isfinite(D) | np.eye(K + 1, dtype=bool)).all((1, 2))
    sq = D[tested] ** 2
    # det G = ((K-1)! V)**2 for the window's volume V; below 0 it embeds nowhere.
    squared_volume = np.linalg.det(_gram(sq[:, :-1, :-1])) / math.factorial(K - 1) ** 2
    flat = np.zeros(len(D), dtype=bool)
    flat[tested] = _flat(squared_volume, sq.max((1, 2), initial=0.0), K - 1)
    # Clique positions of each {u, v} by u, then of the anchor pairs {a, b}.
    pairs = [(i, K) for i in range(K)] + list(itertools.combinations(range(K), 2))
    first, second = zip(*pairs)
    for v, degree, gaps, degenerate in zip(range(K + 1, n + 1), np.diff(starts)[K:].tolist(),
                                           (~present[:, first, second]).tolist(), flat.tolist()):
        if degree < K:
            out.append(Violation(ViolationCode.TOO_FEW_PREDECESSORS, v,
                                 f"vertex {v} has {degree} adjacent predecessors, needs {K}"))
        out += [Violation(ViolationCode.MISSING_WINDOW_EDGE, v,
                          f"missing window edge {{{v - K + i}, {v - K + j}}}"
                          + (f" (anchors of {v})" if j < K else ""))
                for (i, j), gap in zip(pairs, gaps) if gap]
        if degenerate:
            out.append(Violation(ViolationCode.DEGENERATE_SIMPLEX, v,
                                 f"window {list(range(v - K, v))} has degenerate distance simplex"))
    return ValidationReport(tuple(out))


def regular_simplex(K: int) -> np.ndarray:
    """Vertices of the unit-edge regular simplex in R^K.

    First vertex at the origin, later vertices built one coordinate at a
    time (vertex j has exactly j nonzero leading coordinates), which makes
    the coordinates reproducible across implementations.
    """
    gram = np.full((K, K), 0.5) + 0.5 * np.eye(K)
    chol = np.linalg.cholesky(gram)
    verts = np.zeros((K + 1, K))
    verts[1:] = chol
    return verts


def counterexample(K: int) -> Instance:
    """Unit-distance family on n = K + 3 vertices with exactly six embeddings.

    Every pair of vertices at most K ranks apart is joined at distance one,
    plus one long-range edge {1, n}.  The first K + 1 vertices sit on a
    regular unit simplex, which forces coincident placements deep in the
    search tree; the solution count (six) is therefore not a power of two,
    making this the canonical degenerate fixture.
    """
    if K < 1:
        raise ValueError(f"dimension must be >= 1, got {K}")
    n = K + 3
    edges = {}
    for v in range(2, n + 1):
        for u in range(max(1, v - K), v):
            edges[(u, v)] = 1.0
    edges[(1, n)] = 1.0
    verts = regular_simplex(K)
    return Instance(K, n, edges, tuple(map(tuple, verts[:K])))


def _clique_distances(inst: Instance) -> tuple:
    """Each level's clique distances (n-K, K+1, K+1), window then vertex, and which are edges."""
    K, d, window = inst.dimension, inst._edge_arrays[1], inst._edge_arrays[4]
    rows, cols = np.triu_indices(K + 1, 1)
    v = np.arange(K + 1, inst.n + 1)[:, None]
    # Clique positions i < j hold vertices v-K+i and v-K+j: edge window[v-K+j-1, j-i].
    edge = window[v - K - 1 + cols, cols - rows]
    D, present = np.zeros((len(v), K + 1, K + 1)), np.zeros((len(v), K + 1, K + 1), dtype=bool)
    D[:, rows, cols] = D[:, cols, rows] = np.append(d, np.nan)[edge]  # row -1 reads NaN
    present[:, rows, cols] = present[:, cols, rows] = edge >= 0
    return D, present


def _window_volume(points: np.ndarray) -> float:
    """Simplex volume of K points of R^K (dimension K-1), via the Gram matrix."""
    K = points.shape[0]
    if K == 1:
        return 1.0
    M = points[1:] - points[0]
    g = float(np.linalg.det(M @ M.T))
    return math.sqrt(max(g, 0.0)) / math.factorial(K - 1)


def random_instance(K: int, n: int, pruning_prob: float, seed: int):
    """Seeded generator of feasible instances with a known witness.

    Samples n points uniformly in the unit box, redrawing any point whose
    window of K consecutive points is nearly flat (volume below
    ``GENERICITY_MIN_VOLUME``); more than 1000 redraws raise
    GenericityFailure.  All window pairs become edges with their exact
    distances, and each longer pair is added independently with probability
    ``pruning_prob``.  Returns ``(instance, witness)`` where the witness is
    the sampled (n, K) coordinate array; the instance is feasible by
    construction and the output is deterministic for a given seed.
    """
    if K < 1:
        raise ValueError(f"dimension must be >= 1, got {K}")
    if n <= K:
        raise ValueError(f"need n > K, got n = {n}, K = {K}")
    if not 0.0 <= pruning_prob <= 1.0:
        raise ValueError(f"pruning_prob must be in [0, 1], got {pruning_prob}")
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, K))
    rejections = 0
    for i in range(n):
        while True:
            pts[i] = rng.random(K)
            if i < K - 1 or _window_volume(pts[i - K + 1 : i + 1]) >= GENERICITY_MIN_VOLUME:
                break
            rejections += 1
            if rejections > 1000:
                raise GenericityFailure(
                    f"gave up after {rejections} near-degenerate window draws")
    edges = {}
    for u in range(1, n + 1):
        for v in range(u + 1, min(u + K, n) + 1):
            edges[(u, v)] = float(np.linalg.norm(pts[v - 1] - pts[u - 1]))
    for u in range(1, n + 1):
        for v in range(u + K + 1, n + 1):
            if rng.random() < pruning_prob:
                edges[(u, v)] = float(np.linalg.norm(pts[v - 1] - pts[u - 1]))
    inst = Instance(K, n, edges, tuple(map(tuple, pts[:K])))
    return inst, pts.copy()


def edge_violations(inst: Instance, embedding, atol: float = 1e-9, rtol: float = 1e-9):
    """Edges whose distance the embedding misses beyond atol + rtol * d.

    A list of ``((u, v), residual)`` in edge order; the one-embedding form
    of :func:`stacked_edge_violations`.
    """
    return stacked_edge_violations(inst, np.asarray(embedding, dtype=float)[None], atol, rtol)[0]


def stacked_edge_violations(inst: Instance, embeddings, atol: float = 1e-9,
                            rtol: float = 1e-9) -> list:
    """:func:`edge_violations` of every embedding of an (S, n, K) stack.

    All S * |E| residuals come from one numpy pass; each is bit for bit the
    residual ``|norm(emb[u] - emb[v]) - d|`` of a 1-D computation.  A
    residual that is not within the bound, NaN included, is a violation.
    """
    emb = np.asarray(embeddings, dtype=float)
    out: list = [[] for _ in range(len(emb))]
    ends, d = inst._edge_arrays[:2]
    if not len(d) or not len(emb):
        return out
    delta = emb[:, ends[:, 0]] - emb[:, ends[:, 1]]
    res = np.abs(np.sqrt(row_dots(delta, delta)) - d)
    hits, cols = np.nonzero(~(res <= atol + rtol * d))
    pairs = map(tuple, (ends[cols] + 1).tolist())
    for s, pair, value in zip(hits.tolist(), pairs, res[hits, cols].tolist()):
        out[s].append((pair, value))
    return out


_FMT = "%.17g"


def _fmt(x: float) -> str:
    return _FMT % x


def serialize_instance(inst: Instance) -> str:
    """Plain-text form of an instance; 17 significant digits round-trip exactly."""
    lines = [
        "format: dgp-instance 1",
        f"dimension: {inst.dimension}",
        f"n: {inst.n}",
        "initial_embedding:",
    ]
    for row in inst.initial_embedding:
        lines.append(" ".join(_fmt(c) for c in row))
    lines.append("edges:")
    for (u, v), d in sorted(inst.edges.items()):
        lines.append(f"{u} {v} {_fmt(d)}")
    return "\n".join(lines) + "\n"


def _line_index(data: bytes) -> tuple:
    """``(starts, ends)``, the byte bounds of every line of ``data``, stripped.

    The one line model of every file dgbp reads: lines end at LF, CRLF or
    a lone CR, and are stripped of ASCII whitespace as ``bytes.strip``
    strips it; block fields are split as ``bytes.split`` splits them.  The
    control bytes are found in one pass; the rare line that starts or ends
    with a blank is stripped on its own.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    control = np.flatnonzero(b < 14)
    kind = b[control]
    # A CR just before an LF ends its line, and the next line starts after the LF.
    paired = np.zeros(len(kind), dtype=bool)
    paired[:-1] = (kind[:-1] == 13) & (kind[1:] == 10) & (np.diff(control) == 1)
    breaks = ((kind == 10) | (kind == 13)) & ~np.roll(paired, 1)
    ends = control[breaks]
    starts = np.concatenate(([0], ends + 1 + paired[breaks]))
    if data[-1:] in (b"", b"\n", b"\r"):
        starts = starts[:-1]
    else:  # a last line without a line end
        ends = np.append(ends, len(b))
    # An empty line reads its line end and the byte before: stripped, it stays empty.
    blank = (9, 11, 12, 32)  # the ASCII whitespace that does not end a line
    for i in np.flatnonzero(np.isin(b[starts], blank) | np.isin(b[ends - 1], blank)).tolist():
        line = data[starts[i] : ends[i]]
        starts[i] += len(line) - len(line.lstrip())
        ends[i] = starts[i] + len(line.strip())
    return starts, ends


def _records(text: str | bytes) -> tuple:
    """``(data, linenos, starts, ends)``: the bytes of a text and its records.

    A ``str`` is read as its UTF-8 encoding; a lone surrogate encodes as it
    stands (``surrogatepass``), into bytes that are not UTF-8.  Bytes that
    are not UTF-8 raise a ParseError naming the line of the first bad byte.
    The records are the :func:`_line_index` lines that are neither blank
    nor a ``#`` comment: their 1-based line numbers and byte bounds, as
    arrays.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    starts, ends = _line_index(data)
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # A byte past 0x7f is no blank, so its stripped line starts at or before it.
            line = int(np.searchsorted(starts, exc.start, "right"))
            raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})", line) from exc
    kept = ends > starts
    kept[kept] = np.frombuffer(data, dtype=np.uint8)[starts[kept]] != ord("#")
    return data, np.flatnonzero(kept) + 1, starts[kept], ends[kept]


def parse_instance(text: str | bytes) -> Instance:
    """Parse the text form produced by :func:`serialize_instance`, as ``str`` or ``bytes``.

    Lines are the records of :func:`_records`.  ``dimension`` and ``n`` must
    appear before the ``initial_embedding:`` block (K rows of K reals),
    which must precede the ``edges:`` block (one ``u v d`` triple per
    line).  Lines stay bytes; only a field key is decoded.  Raises
    ParseError with a line number on any deviation; a repeated edge is
    reported with code ``DuplicateEdge``.
    """
    data, linenos, starts, ends = _records(text)
    dimension = n = None
    emb_rows: list[tuple] = []
    edges: dict = {}
    mode = None

    for lineno, begin, end in zip(linenos.tolist(), starts.tolist(), ends.tolist()):
        line = data[begin:end]
        # An int operand: ``in`` with a bytes operand costs ten times as much per line.
        if ord(":") in line and not (mode == "edges" and line[:1].isdigit()):
            key, _, rest = line.partition(b":")
            key, rest = key.strip().decode(), rest.strip()
            if key == "format":
                if not rest.startswith(b"dgp-instance"):
                    raise ParseError(f"not an instance file (format {rest.decode()!r})", lineno)
            elif key == "dimension":
                dimension = _parse_int(rest, lineno, "dimension")
            elif key == "n":
                n = _parse_int(rest, lineno, "n")
            elif key == "initial_embedding":
                if rest:
                    raise ParseError("initial_embedding takes no inline value", lineno)
                if dimension is None or n is None:
                    raise ParseError("dimension and n must precede initial_embedding", lineno)
                mode = "embedding"
            elif key == "edges":
                if rest:
                    raise ParseError("edges takes no inline value", lineno)
                if dimension is None or n is None:
                    raise ParseError("dimension and n must precede edges", lineno)
                mode = "edges"
            else:
                raise ParseError(f"unknown field {key!r}", lineno)
            continue
        parts = line.split()
        if mode == "embedding":
            if len(parts) != dimension:
                raise ParseError(
                    f"initial embedding row needs {dimension} coordinates, got {len(parts)}",
                    lineno)
            emb_rows.append(tuple(_parse_float(p, lineno, "coordinate") for p in parts))
            if len(emb_rows) == dimension:
                mode = None
        elif mode == "edges":
            if len(parts) != 3:
                raise ParseError(f"edge line needs 'u v d', got {line.decode()!r}", lineno)
            u = _parse_int(parts[0], lineno, "edge endpoint")
            v = _parse_int(parts[1], lineno, "edge endpoint")
            d = _parse_float(parts[2], lineno, "distance")
            if u == v:
                raise ParseError(f"self-loop on vertex {u}", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge {{{u}, {v}}} out of range 1..{n}", lineno)
            key = (u, v) if u < v else (v, u)
            if key in edges:
                raise ParseError(f"duplicate edge {{{key[0]}, {key[1]}}}", lineno,
                                 code="DuplicateEdge")
            edges[key] = d
        else:
            raise ParseError(f"unexpected data line {line.decode()!r}", lineno)

    if dimension is None:
        raise ParseError("missing 'dimension' field")
    if n is None:
        raise ParseError("missing 'n' field")
    if len(emb_rows) != dimension:
        raise ParseError(
            f"initial embedding has {len(emb_rows)} rows, expected {dimension}")
    if not edges:
        raise ParseError("missing 'edges' section")
    return Instance(dimension, n, edges, tuple(emb_rows))


def _parse_int(token: bytes, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token.decode()!r}", lineno) from None


def _parse_float(token: bytes, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token.decode()!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {token.decode()!r}", lineno)
    return value
