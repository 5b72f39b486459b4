"""Exact small-dimension geometry primitives.

A point is a length-K numpy vector; a set of anchors is a (K, K) array with
one point per row, ordered by vertex rank.  These are the building blocks of
the vertex-placement step: the simplex-volume test that guards against
degenerate anchors, the hyperplane through K anchor points, the mirror image
across it, and the placement of a vertex against its K anchors, whose
coefficients come from the distances alone (:func:`level_table`).  The
primitives work on stacks of F anchor sets at once (:func:`_anchor_planes`,
:func:`reflect_stack`, :func:`extend_stack`), and each row comes out bit for
bit as a stack of one would give it.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, NegativeDeterminant

#: Threshold below which a normal component counts as zero (pivot selection,
#: canonical orientation, orientation ties).
EPS_NORMAL = 1e-12

#: The one definition of degeneracy: a dim-simplex of volume V is flat
#: against a length L iff V**2 <= EPS_FLAT * L**(2*dim) (see _flat).
EPS_FLAT = 1e-13

#: Tangency band: a squared height h**2 within +/- EPS_TANGENT * (max radius)**2
#: is treated as zero (see level_table).
EPS_TANGENT = 1e-12


def _flat(squared_volume, squared_length, dim: int):
    """Elementwise V**2 <= EPS_FLAT * L**(2*dim), from V**2 and L**2: scale-free."""
    return squared_volume <= EPS_FLAT * squared_length**dim


def cayley_menger_volume(sq_dists, dim: int) -> float:
    """Volume of the ``dim``-simplex given its squared pairwise distances.

    ``sq_dists`` is the symmetric (dim+1) x (dim+1) matrix of squared
    distances between the simplex vertices; only distances are needed, never
    coordinates, so the test applies equally to edge-weighted cliques.  The
    squared volume is det G / (dim!)**2, G from :func:`_gram`; the
    0-simplex (a single point) has volume 1, the determinant of no rows.

    Returns 0.0 iff the simplex is flat against its own longest edge (see
    :func:`_flat`), at any scale.  Raises NegativeDeterminant when the
    distances cannot be realised by points in any Euclidean space, and
    DimensionMismatch for a wrongly sized matrix.
    """
    D = np.asarray(sq_dists, dtype=float)
    if D.shape != (dim + 1, dim + 1):
        raise DimensionMismatch(
            f"expected a {(dim + 1, dim + 1)} matrix for a {dim}-simplex, got {D.shape}"
        )
    if np.any(D < 0.0):
        raise ValueError("squared distances must be nonnegative")
    if np.any(np.diagonal(D) != 0.0):
        raise ValueError("squared-distance matrix must have a zero diagonal")
    if not np.array_equal(D, D.T):
        raise ValueError("squared-distance matrix must be symmetric")
    squared = float(np.linalg.det(_gram(D[None]))[0]) / math.factorial(dim) ** 2
    if _flat(abs(squared), float(D.max()), dim):
        return 0.0
    if squared < 0.0:
        raise NegativeDeterminant(
            f"distances are not embeddable: squared volume = {squared:.6e}"
        )
    return math.sqrt(squared)


@functools.lru_cache(maxsize=None)
def _cofactor_layout(K: int) -> tuple:
    """``kept[j]`` lists every column of a (K-1, K) matrix but j; ``signs[j]`` is (-1)**j."""
    kept = np.arange(K - 1) + (np.arange(K - 1) >= np.arange(K)[:, None])
    signs = (-1.0) ** np.arange(K)
    kept.flags.writeable = signs.flags.writeable = False
    return kept, signs


@functools.lru_cache(maxsize=256)
def _row_starts(F: int, K: int) -> np.ndarray:
    """The flat index of the first entry of each row of a C-contiguous (F, K) array."""
    starts = np.arange(0, F * K, K)
    starts.flags.writeable = False
    return starts


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a[..., :] @ b[..., :]`` over the last axis.

    Bit for bit the 1-D product ``a[f] @ b[f]`` of each pair of rows, which
    elementwise sums and ``einsum`` are not.  BLAS takes another kernel for
    rows that are not contiguous, and from K = 4 on its last bit differs, so
    rows must be contiguous wherever the 1-D operands they stand for were.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _anchor_planes(X: np.ndarray, references) -> np.ndarray:
    """Oriented unit normals (F, K) of the hyperplanes through the K rows of each ``X[f]``.

    The raw normal of row f holds the signed maximal minors of the anchor
    differences ``X[f, :-1] - X[f, -1]``: entry j is (-1)**j times the minor
    left by deleting column j, the generalized cross product of the K-1 rows
    ((1,) when K = 1).  By Cauchy-Binet its length is (K-1)! times the
    volume of the anchor simplex; when that simplex is flat against the
    longest difference (see :func:`_flat`) DegenerateSpan is raised.

    Orientation: ``references`` is (F, K) or None, and row f's normal is
    flipped, if necessary, so that ``normal . references[f] >= 0``.  With no
    reference, or where that dot product is within EPS_NORMAL of zero, the
    pivot component (the first one above EPS_NORMAL) is made positive
    instead, which keeps the labelling deterministic.  The plane passes
    through the last anchor a_K = ``X[f, -1]``: a point x is on side 0 when
    ``normal . (x - a_K) <= 0`` and on side 1 otherwise.
    """
    F, K = X.shape[0], X.shape[2]
    diffs = X[:, :-1] - X[:, -1:]
    kept, signs = _cofactor_layout(K)
    # C order keeps the normals' rows contiguous for row_dots.
    minors = signs * np.linalg.det(np.ascontiguousarray(diffs[:, :, kept].transpose(0, 2, 1, 3)))
    lengths = np.sqrt(row_dots(minors, minors))
    reach = (diffs * diffs).sum(-1).max(-1, initial=0.0)
    if _flat((lengths / math.factorial(K - 1)) ** 2, reach, K - 1).any():
        raise DegenerateSpan("anchor points do not span a hyperplane")
    normals = minors / lengths[:, None]
    # A unit normal always has a component above EPS_NORMAL: the pivot,
    # read through the flat index of the contiguous normals.
    pivot = (np.abs(normals) > EPS_NORMAL).argmax(1)
    flip = normals.ravel()[_row_starts(F, K) + pivot] < 0.0
    if references is not None:
        along = row_dots(normals, np.asarray(references, dtype=float))
        flip = (along < -EPS_NORMAL) | ((np.abs(along) <= EPS_NORMAL) & flip)
    return np.negative(normals, out=normals, where=flip[:, None])


def reflect_stack(normals, bases, points) -> np.ndarray:
    """Mirror images of the points (S, T, K) across S planes, one per row.

    Row s of ``points`` is reflected across the plane with unit normal
    ``normals[s]`` (S, K) through the point ``bases[s]`` (S, K), the last
    anchor of the window the normal comes from:
    ``x - 2 (n . (x - b)) n``.  The map is an involution and an isometry,
    points on the plane are fixed, and only differences from the plane's
    own point enter it, so moving points and bases together moves the
    images with them.
    """
    a = np.ascontiguousarray(normals, dtype=float)  # see row_dots
    q = np.asarray(points, dtype=float)
    along = row_dots(q - np.asarray(bases, dtype=float)[:, None, :], a[:, None, :])
    return q - 2.0 * along[..., None] * a[:, None, :]


# ExtensionStack.kind codes, the number of distinct intersection points.
_EMPTY, _TANGENT, _PAIR = range(3)


def _gram(sq_dists) -> np.ndarray:
    """Gram matrices (L, K-1, K-1) of the ``w_i - w_K`` of L simplexes w_1..w_K.

    From their squared distances (L, K, K), by the law of cosines; the
    determinant is ((K-1)! V)**2 for the simplex volume V.
    """
    last = sq_dists[:, :-1, -1]
    return (last[:, :, None] + last[:, None, :] - sq_dists[:, :-1, :-1]) / 2.0


def level_table(sq_dists) -> tuple:
    """Where each of L vertices sits relative to its anchors w_1..w_K, from distances.

    ``sq_dists`` (L, K+1, K+1) are the squared distances among each level's
    anchors and its vertex (last), r_i from w_i to the vertex.  With G from
    :func:`_gram` and ``c_i = (r_K**2 + |w_i - w_K|**2 - r_i**2) / 2``, the
    vertex is ``w_K + sum_i mu_i (w_i - w_K) +/- h n``, n the anchor plane's
    unit normal, for ``mu = G^-1 c`` and ``h**2 = r_K**2 - mu^T G mu``.
    Returns ``(mu, h2)``, (L, K-1) and (L,); ``h2`` is 0.0 within +/-
    EPS_TANGENT times the largest r_i**2 (tangent) and empty below that.
    """
    sq = np.asarray(sq_dists, dtype=float)
    K = sq.shape[1] - 1
    gram = _gram(sq[:, :-1, :-1])
    reach = sq[:, K - 1, K]
    c = (reach[:, None] + sq[:, : K - 1, K - 1] - sq[:, : K - 1, K]) / 2.0
    mu = np.linalg.solve(gram, c[..., None])[..., 0]
    h2 = reach - row_dots(mu, np.matmul(gram, mu[..., None])[..., 0])
    band = EPS_TANGENT * sq[:, :K, K].max(1, initial=0.0)
    return mu, np.where(np.abs(h2) <= band, 0.0, h2)


@dataclass(frozen=True)
class ExtensionStack:
    """The placements of one level's vertex over F anchor sets, one row each.

    ``kind`` is the level's number of distinct placements, the same for
    every row: 0 (empty), 1 (tangent) or 2 (pair).  ``points[f, s]`` is
    the placement with side bit ``s`` and ``placed[f, s]`` says whether
    there is one: both sides of a pair, the one side of the plane a tangent
    point falls on (it fills both slots), neither side when empty (those
    points are NaN).  ``normals`` are the oriented unit normals of the
    anchor planes, each through its row's last anchor (:func:`_anchor_planes`).
    """

    kind: int
    points: np.ndarray
    placed: np.ndarray
    normals: np.ndarray


def extend_stack(anchors, mu, h2, references=None) -> ExtensionStack:
    """Place one level's vertex against every anchor set ``anchors[f]`` (F, K, K).

    ``mu`` (K-1,) and ``h2`` are the level's row of :func:`level_table`,
    shared by all rows, whose anchors realise the same distances.  This is
    the one placement primitive, and each row comes out bit for bit as a
    stack of that row alone would give it.  The foot is
    ``a_K + sum_i mu_i (a_i - a_K)`` (a_1 when K = 1); with n the unit
    normal of :func:`_anchor_planes`, oriented by ``references`` (F, K) or
    None, side 0 is ``foot - sqrt(h2) n`` and side 1 ``foot + sqrt(h2) n``.
    ``h2`` < 0 is empty, and ``h2`` == 0 the foot on the side of the plane
    it falls on.  Raises DegenerateSpan if any row's anchors are degenerate.
    """
    X = np.asarray(anchors, dtype=float)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise DimensionMismatch(f"expected K anchors in R^K, got array of shape {X.shape}")
    K = X.shape[2]
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (K - 1,):
        raise DimensionMismatch(f"expected {K - 1} foot weights, got array of shape {mu.shape}")
    h2 = float(h2)
    normals = _anchor_planes(X, references)
    kind = _EMPTY if h2 < 0.0 else _TANGENT if h2 == 0.0 else _PAIR
    foot = X[:, -1].copy()
    for i, weight in enumerate(mu.tolist()):
        foot += weight * (X[:, i] - X[:, -1])
    h = math.nan if kind == _EMPTY else math.sqrt(h2)
    points = np.stack([foot - h * normals, foot + h * normals], axis=1)
    placed = np.full(points.shape[:2], kind == _PAIR)
    if kind == _TANGENT:
        upper = row_dots(normals, foot - X[:, -1]) > 0.0
        placed[:, 0], placed[:, 1] = ~upper, upper
    return ExtensionStack(kind, points, placed, normals)
