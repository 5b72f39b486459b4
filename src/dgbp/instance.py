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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GenericityFailure, NegativeDeterminant, ParseError
from .geometry import _flat, cayley_menger_volume, row_dots

#: Windows whose simplex volume falls below this are rejected when sampling
#: random instances, turning "generic position" into a constructive bound.
GENERICITY_MIN_VOLUME = 1e-6


class EdgeKind(Enum):
    DISCRETIZATION = "discretization"
    PRUNING = "pruning"


@dataclass(frozen=True)
class Instance:
    """A K-dimensional instance with vertices 1..n in rank order.

    ``edges`` maps unordered pairs (stored as ``(min, max)`` tuples) to
    distances; ``initial_embedding`` gives the coordinates of vertices 1..K.
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
        object.__setattr__(self, "edges", normalised)
        emb = tuple(tuple(float(c) for c in row) for row in self.initial_embedding)
        object.__setattr__(self, "initial_embedding", emb)

    def window(self, v: int) -> range:
        """Ranks of the K immediate predecessors of vertex ``v``."""
        return range(v - self.dimension, v)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edges

    def distance(self, u: int, v: int) -> float:
        return self.edges[(u, v) if u < v else (v, u)]

    def predecessors(self, v: int) -> list[int]:
        """Adjacent predecessors of ``v`` in rank order."""
        return list(self._predecessor_lists.get(v, ()))

    @functools.cached_property
    def _predecessor_lists(self) -> dict:
        """Every vertex's adjacent predecessors, from one walk of the edges."""
        lists: dict = {}
        for u, v in sorted(self.edges):
            if 1 <= u < v:
                lists.setdefault(v, []).append(u)
        return lists

    @functools.cached_property
    def _edge_arrays(self) -> tuple:
        """The sorted edges, their 0-based end indices (|E|, 2) and distances (|E|,)."""
        edges = sorted(self.edges)
        ends = np.array(edges, dtype=int).reshape(-1, 2) - 1
        d = np.array([self.edges[e] for e in edges])
        ends.flags.writeable = d.flags.writeable = False
        return edges, ends, d

    def initial_points(self) -> np.ndarray:
        return np.asarray(self.initial_embedding, dtype=float)


def edge_kind(inst: Instance, u: int, v: int) -> EdgeKind:
    """Window edges discretize the search; longer edges only prune."""
    if not inst.has_edge(u, v):
        raise KeyError(f"no edge {{{u}, {v}}}")
    return EdgeKind.DISCRETIZATION if abs(u - v) <= inst.dimension else EdgeKind.PRUNING


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

    def codes(self) -> set:
        return {v.code for v in self.violations}

    def for_vertex(self, vertex: int) -> list:
        return [v for v in self.violations if v.vertex == vertex]

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"{v.code.value}({v.vertex}): {v.detail}" for v in self.violations)


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

    if K < 1:
        out.append(Violation(ViolationCode.MALFORMED_INSTANCE, None, f"dimension {K} < 1"))
        return ValidationReport(tuple(out))
    if n < K:
        out.append(Violation(ViolationCode.MALFORMED_INSTANCE, None, f"n = {n} < dimension {K}"))

    for (u, v), d in sorted(inst.edges.items()):
        if not (1 <= u < v <= n):
            out.append(Violation(ViolationCode.MALFORMED_INSTANCE, None,
                                 f"edge {{{u}, {v}}} out of range"))
        if not (math.isfinite(d) and d > 0.0):
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
        for u in range(1, min(K, n) + 1):
            for v in range(u + 1, min(K, n) + 1):
                if not inst.has_edge(u, v):
                    continue
                d = inst.distance(u, v)
                res = abs(float(np.linalg.norm(pts[u - 1] - pts[v - 1])) - d)
                if res > atol + rtol * d:
                    out.append(Violation(
                        ViolationCode.INVALID_INITIAL_EMBEDDING, v,
                        f"edge {{{u}, {v}}}: embedded distance off by {res:.3e}"))

    for v in range(K + 1, n + 1):
        degree = len(inst.predecessors(v))
        if degree < K:
            out.append(Violation(ViolationCode.TOO_FEW_PREDECESSORS, v,
                                 f"vertex {v} has {degree} adjacent predecessors, needs {K}"))
        window = list(inst.window(v))
        clique_ok = True
        for u in window:
            if not inst.has_edge(u, v):
                clique_ok = False
                out.append(Violation(ViolationCode.MISSING_WINDOW_EDGE, v,
                                     f"missing window edge {{{u}, {v}}}"))
        for a in range(len(window)):
            for b in range(a + 1, len(window)):
                if not inst.has_edge(window[a], window[b]):
                    clique_ok = False
                    out.append(Violation(ViolationCode.MISSING_WINDOW_EDGE, v,
                                         f"missing window edge {{{window[a]}, {window[b]}}} "
                                         f"(anchors of {v})"))
        clique = window + [v]
        dists = itertools.starmap(inst.distance, itertools.combinations(clique, 2))
        # A clique holding a distance reported above has no simplex to test.
        if clique_ok and all(math.isfinite(d) and d > 0.0 for d in dists):
            sq = np.array([[inst.distance(a, b) ** 2 if a != b else 0.0 for b in clique]
                           for a in clique])
            try:
                vol = cayley_menger_volume(sq[:-1, :-1], K - 1)
            except NegativeDeterminant:
                vol = 0.0
            if _flat(vol * vol, float(sq.max()), K - 1):
                out.append(Violation(ViolationCode.DEGENERATE_SIMPLEX, v,
                                     f"window {window} has degenerate distance simplex"))
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
    edges, ends, d = inst._edge_arrays
    if not edges or not len(emb):
        return out
    delta = emb[:, ends[:, 0]] - emb[:, ends[:, 1]]
    res = np.abs(np.sqrt(row_dots(delta, delta)) - d)
    hits, cols = np.nonzero(~(res <= atol + rtol * d))
    for s, j, value in zip(hits.tolist(), cols.tolist(), res[hits, cols].tolist()):
        out[s].append((edges[j], value))
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


def parse_instance(text: str) -> Instance:
    """Parse the text form produced by :func:`serialize_instance`.

    Blank lines and ``#`` comments are ignored.  ``dimension`` and ``n`` must
    appear before the ``initial_embedding:`` block (K rows of K reals), which
    must precede the ``edges:`` block (one ``u v d`` triple per line).
    Raises ParseError with a line number on any deviation; a repeated edge is
    reported with code ``DuplicateEdge``.
    """
    dimension = None
    n = None
    emb_rows: list[tuple] = []
    edges: dict = {}
    mode = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" in line and not (mode == "edges" and line[0].isdigit()):
            key, _, rest = line.partition(":")
            key = key.strip()
            rest = rest.strip()
            if key == "format":
                if not rest.startswith("dgp-instance"):
                    raise ParseError(f"not an instance file (format {rest!r})", lineno)
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
        if mode == "embedding":
            parts = line.split()
            if len(parts) != dimension:
                raise ParseError(
                    f"initial embedding row needs {dimension} coordinates, got {len(parts)}",
                    lineno)
            emb_rows.append(tuple(_parse_float(p, lineno, "coordinate") for p in parts))
            if len(emb_rows) == dimension:
                mode = None
        elif mode == "edges":
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"edge line needs 'u v d', got {line!r}", lineno)
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
            raise ParseError(f"unexpected data line {line!r}", lineno)

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


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", lineno) from None


def _parse_float(token: str, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what} {token!r}", lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {token!r}", lineno)
    return value
