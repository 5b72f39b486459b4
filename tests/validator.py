"""The per-vertex validator the package's ``validate`` is checked against.

``validate_by_vertex`` reads the ``edges`` mapping directly: first each
edge in sorted order, then the initial embedding, then one vertex past K
at a time, its degree, the window edges it lacks and the flatness of its
window simplex.  It is slow on large instances, but easy to trust.  It
has no size guard, so it suits instances with at least n - K edges.
"""

import itertools
import math

import numpy as np

from dgbp.geometry import _flat, _gram
from dgbp.instance import ValidationReport, Violation, ViolationCode


def validate_by_vertex(inst, atol: float = 1e-9, rtol: float = 1e-9) -> ValidationReport:
    """``validate`` by the per-vertex loop alone."""
    K, n, edges = inst.dimension, inst.n, inst.edges
    if K < 1:
        return ValidationReport((_malformed(f"dimension {K} < 1"),))
    out = [_malformed(f"n = {n} < dimension {K}")] if n < K else []

    for (u, v), d in sorted(edges.items()):
        if not 1 <= u < v <= n:
            out.append(_malformed(f"edge {{{u}, {v}}} out of range"))
        if not (math.isfinite(d) and d > 0.0):
            out.append(Violation(ViolationCode.NONPOSITIVE_DISTANCE, None,
                                 f"edge {{{u}, {v}}} has distance {d!r}"))

    emb = inst.initial_embedding
    if not (len(emb) == K and all(len(row) == K and all(map(math.isfinite, row))
                                  for row in emb)):
        out.append(Violation(ViolationCode.INVALID_INITIAL_EMBEDDING, None,
                             f"initial embedding must be {K} finite points of R^{K}"))
    else:
        pts = np.asarray(emb, dtype=float)
        for (u, v), d in sorted(edges.items()):
            if 1 <= u < v <= min(K, n):
                res = abs(float(np.linalg.norm(pts[u - 1] - pts[v - 1])) - d)
                if res > atol + rtol * d:
                    out.append(Violation(
                        ViolationCode.INVALID_INITIAL_EMBEDDING, v,
                        f"edge {{{u}, {v}}}: embedded distance off by {res:.3e}"))

    for v in range(K + 1, n + 1):
        degree = sum(1 for a, b in edges if b == v and 1 <= a)
        if degree < K:
            out.append(Violation(ViolationCode.TOO_FEW_PREDECESSORS, v,
                                 f"vertex {v} has {degree} adjacent predecessors, needs {K}"))
        window = range(v - K, v)
        missing = [f"{{{u}, {v}}}" for u in window if (u, v) not in edges]
        missing += [f"{{{a}, {b}}} (anchors of {v})"
                    for a, b in itertools.combinations(window, 2) if (a, b) not in edges]
        out += [Violation(ViolationCode.MISSING_WINDOW_EDGE, v, f"missing window edge {edge}")
                for edge in missing]
        if not missing and _flat_window(edges, [*window, v]):
            out.append(Violation(ViolationCode.DEGENERATE_SIMPLEX, v,
                                 f"window {list(window)} has degenerate distance simplex"))
    return ValidationReport(tuple(out))


def _malformed(detail: str) -> Violation:
    return Violation(ViolationCode.MALFORMED_INSTANCE, None, detail)


def _flat_window(edges, clique) -> bool:
    """Whether a clique of positive finite distances has a flat window (all but the last)."""
    D = np.array([[edges[min(a, b), max(a, b)] if a != b else 0.0 for b in clique]
                  for a in clique])
    if not ((D > 0.0) & np.isfinite(D) | np.eye(len(clique), dtype=bool)).all():
        return False  # a distance reported above: no simplex to test
    sq = D**2
    dim = len(clique) - 2
    squared_volume = np.linalg.det(_gram(sq[None, :-1, :-1]))[0] / math.factorial(dim) ** 2
    return bool(_flat(squared_volume, sq.max(), dim))
