"""Seeded inputs for the benchmark workloads, and the answers they must give.

The generator here belongs to the benchmark, not to the program, so the
workload matrix cannot drift when the program's own generator changes.  It
follows the same recipe as ``dgbp generate --random``: points drawn uniformly
in the unit box, every window pair joined at its exact distance, and each
longer pair joined with probability ``p``.  Points whose (K+1)-point window is
nearly flat are redrawn, so every instance is generic and every placement is
well conditioned.

Expected answers are derived from the generator's witness, not from the
program.  On a generic instance the branch codes form one orbit: the
witness's code XOR every combination of suffix flips at the branching levels
B = {v > K : no pruning edge {u, w} has u + K < v <= w}.  The witness's code
is recomputed here with the program's orientation convention (chained
normals, first nonzero component positive when there is no reference).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Smallest volume of the K-simplex spanned by K+1 consecutive points.
MIN_SIMPLEX_VOLUME = 1e-3

#: Sizes of the deep_sparse chains.  1100 is above the depth at which the
#: recursive search overflows the default interpreter stack; it stays in.
DEEP_SIZES = (200, 400, 600, 800, 1100)

#: Number of spectrum levels q checked on symmetry_tree (2**q distances).
SPECTRUM_Q = 2


@dataclass
class Input:
    """One instance file of a workload and what the program must answer."""

    name: str
    text: str
    K: int
    n: int
    count: int
    codes_sha: str
    generic: bool = True
    spectrum: tuple | None = None  # (u, v) checked with distance_spectrum


def codes_digest(codes) -> str:
    """sha256 of the ordered branch-code list, one code per line."""
    h = hashlib.sha256()
    for code in codes:
        h.update(("".join(map(str, code)) + "\n").encode())
    return h.hexdigest()


def _simplex_volume(points: np.ndarray) -> float:
    M = points[1:] - points[0]
    g = float(np.linalg.det(M @ M.T))
    return math.sqrt(max(g, 0.0)) / math.factorial(len(M))


def sample_points(rng, K: int, n: int) -> np.ndarray:
    pts = np.zeros((n, K))
    for i in range(n):
        while True:
            pts[i] = rng.random(K)
            if i < K or _simplex_volume(pts[i - K : i + 1]) >= MIN_SIMPLEX_VOLUME:
                break
    return pts


def sample_edges(rng, pts: np.ndarray, p: float, back_edge: bool) -> dict:
    """Window edges plus long edges drawn with probability ``p``.

    With ``back_edge``, a vertex past K+1 that drew no long edge gets one to a
    random earlier vertex, so a wrong branch is pruned at the level that made
    it and the tree size does not hinge on a lucky gap near the root.
    """
    n, K = pts.shape
    pairs = [(u, v) for v in range(2, n + 1) for u in range(max(1, v - K), v)]
    for v in range(K + 2, n + 1):
        far = [u for u, hit in enumerate(rng.random(v - K - 1) < p, start=1) if hit]
        if back_edge and not far:
            far = [int(rng.integers(1, v - K))]
        pairs += [(u, v) for u in far]
    return {(u, v): float(np.linalg.norm(pts[v - 1] - pts[u - 1])) for u, v in sorted(pairs)}


def instance_text(pts: np.ndarray, edges: dict) -> str:
    n, K = pts.shape
    lines = ["format: dgp-instance 1", f"dimension: {K}", f"n: {n}", "initial_embedding:"]
    lines += [" ".join("%.17g" % c for c in row) for row in pts[:K]]
    lines.append("edges:")
    lines += [f"{u} {v} {'%.17g' % d}" for (u, v), d in edges.items()]
    return "\n".join(lines) + "\n"


def _oriented_normal(anchors: np.ndarray, reference) -> np.ndarray:
    K = anchors.shape[1]
    normal = np.array([1.0]) if K == 1 else np.linalg.svd(anchors[1:] - anchors[0])[2][-1]
    along = float(normal @ reference) if reference is not None else 0.0
    if along < -1e-12:
        return -normal
    if abs(along) <= 1e-12:
        lead = next((c for c in normal if abs(c) > 1e-12), 1.0)
        return normal if lead > 0 else -normal
    return normal


def witness_code(pts: np.ndarray) -> tuple:
    """Side bits of the witness along the chained, oriented anchor planes."""
    n, K = pts.shape
    bits, normal = [0] * K, None
    for v in range(K + 1, n + 1):
        anchors = pts[v - 1 - K : v - 1]
        normal = _oriented_normal(anchors, normal)
        offset = float(np.mean(anchors @ normal))
        bits.append(0 if float(normal @ pts[v - 1]) - offset <= 0.0 else 1)
    return tuple(bits)


def branching_levels(n: int, K: int, edges: dict) -> list:
    covered = [0] * (n + 2)
    for u, w in edges:
        if w - u > K:  # spans levels u+K+1 .. w
            covered[u + K + 1] += 1
            covered[w + 1] -= 1
    out, depth = [], 0
    for v in range(1, n + 1):
        depth += covered[v]
        if v > K and depth == 0:
            out.append(v)
    return out


def expected_codes(pts: np.ndarray, edges: dict) -> list:
    n, K = pts.shape
    base = witness_code(pts)
    levels = branching_levels(n, K, edges)
    codes = set()
    for chosen in itertools.product((0, 1), repeat=len(levels)):
        flip = [0] * n
        for lvl, on in zip(levels, chosen):
            if on:
                for j in range(lvl - 1, n):
                    flip[j] ^= 1
        codes.add(tuple(b ^ f for b, f in zip(base, flip)))
    return sorted(codes)


def random_input(name: str, rng, K: int, n: int, p: float, back_edge: bool) -> Input:
    pts = sample_points(rng, K, n)
    edges = sample_edges(rng, pts, p, back_edge)
    codes = expected_codes(pts, edges)
    return Input(name, instance_text(pts, edges), K, n, len(codes), codes_digest(codes))


def corpus_inputs() -> list:
    """The sixteen fixtures shipped with the package, copied verbatim."""
    expected = json.loads((HERE / "corpus" / "expected.json").read_text())
    return [
        Input(name, (HERE / "corpus" / f"{name}.txt").read_text(), row["K"], row["n"],
              row["count"], row["codes_sha"], generic=row["analyze_exit"] == 0)
        for name, row in sorted(expected.items())
    ]


def make_inputs(workload: str, seed: int) -> list:
    """Every input of one pass of ``workload``, deterministic in ``seed``."""
    rng = np.random.default_rng([seed % 2**64, sum(map(ord, workload))])
    if workload == "full_tree":
        return [random_input("full_tree_k2_n16", rng, 2, 16, 0.0, False)]
    if workload == "symmetry_tree":
        inp = random_input("symmetry_tree_k2_n12", rng, 2, 12, 0.0, False)
        inp.spectrum = (inp.n - inp.K - SPECTRUM_Q, inp.n)
        return [inp]
    if workload == "deep_sparse":
        return [random_input(f"deep_sparse_k3_n{n}", rng, 3, n, 0.02, True) for n in DEEP_SIZES]
    if workload == "corpus":
        return corpus_inputs()
    raise ValueError(f"unknown workload {workload!r}")
