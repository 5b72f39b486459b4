"""Exact small-dimension geometry primitives.

A point is a length-K numpy vector; a set of anchors is a (K, K) array with
one point per row, ordered by vertex rank.  These are the building blocks of
the vertex-placement step: the simplex-volume test that guards against
degenerate anchors, the hyperplane through K anchor points, the mirror image
across it, and the two-point intersection of the K spheres centred at the
anchors.  All of them work on stacks of F anchor sets at once
(:func:`_anchor_planes`, :func:`reflect_stack`, :func:`extend_stack`), and
each row comes out bit for bit as a stack of one would give it.

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

#: Tangency band: a raw discriminant within +/- DISC_CLAMP * (max radius)**2
#: is treated as zero.
DISC_CLAMP = 1e-12


def _flat(squared_volume, squared_length, dim: int):
    """Elementwise V**2 <= EPS_FLAT * L**(2*dim), from V**2 and L**2: scale-free."""
    return squared_volume <= EPS_FLAT * squared_length**dim


def cayley_menger_volume(sq_dists, dim: int) -> float:
    """Volume of the ``dim``-simplex given its squared pairwise distances.

    ``sq_dists`` is the symmetric (dim+1) x (dim+1) matrix of squared
    distances between the simplex vertices; only distances are needed, never
    coordinates, so the test applies equally to edge-weighted cliques.  The
    0-simplex (a single point) has volume 1 by convention.

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
    if dim == 0:
        return 1.0
    bordered = np.ones((dim + 2, dim + 2))
    bordered[0, 0] = 0.0
    bordered[1:, 1:] = D
    det = float(np.linalg.det(bordered))
    squared = (-1.0) ** (dim + 1) * det / (2.0**dim * math.factorial(dim) ** 2)
    if _flat(abs(squared), float(D.max()), dim):
        return 0.0
    if squared < 0.0:
        raise NegativeDeterminant(
            f"distances are not embeddable: squared volume = {squared:.6e}"
        )
    return math.sqrt(squared)


@functools.lru_cache(maxsize=None)
def _cofactor_layout(K: int) -> tuple:
    """Column tables for a K-column elimination, indexed by the deleted column.

    ``kept[j]`` lists every column of a (K-1, K) matrix but j and ``signs[j]``
    is (-1)**j; ``slots[j]`` puts values listed as the kept columns and then
    column j back into column order.
    """
    cols = np.arange(K)
    kept = np.arange(K - 1)
    kept = kept + (kept >= cols[:, None])
    signs = (-1.0) ** cols
    slots = np.argsort(np.column_stack([kept, cols]), axis=1)
    for table in (kept, signs, slots):
        table.flags.writeable = False
    return kept, signs, slots


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise ``a[..., :] @ b[..., :]`` over the last axis.

    Bit for bit the 1-D product ``a[f] @ b[f]`` of each pair of rows, which
    elementwise sums and ``einsum`` are not.  BLAS takes another kernel for
    rows that are not contiguous, and from K = 4 on its last bit differs, so
    rows must be contiguous wherever the 1-D operands they stand for were.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _anchor_planes(X: np.ndarray, references) -> tuple:
    """Oriented hyperplanes through the K rows of each ``X[f]``, shape (F, K, K).

    Returns ``(normals, offsets, pivots, minors)``.  The raw normal of row f
    holds the signed maximal minors of the anchor differences
    ``X[f, :-1] - X[f, -1]``: entry j is (-1)**j times the minor left by
    deleting column j, the generalized cross product of the K-1 rows ((1,)
    when K = 1).  By Cauchy-Binet its length is (K-1)! times the volume of
    the anchor simplex; when that simplex is flat against the longest
    difference (see :func:`_flat`) DegenerateSpan is raised.

    Orientation: ``references`` is (F, K) or None, and row f's normal is
    flipped, if necessary, so that ``normal . references[f] >= 0``.  With no
    reference, or where that dot product is within EPS_NORMAL of zero, the
    pivot component (the first one above EPS_NORMAL) is made positive
    instead, which keeps the labelling deterministic.  A point x is on side
    0 of a plane when ``normal . x - offset <= 0`` and on side 1 otherwise.
    """
    F, K = X.shape[0], X.shape[2]
    diffs = X[:, :-1] - X[:, -1:]
    kept, signs, _ = _cofactor_layout(K)
    # C order keeps the normals' rows contiguous for row_dots.
    minors = signs * np.linalg.det(np.ascontiguousarray(diffs[:, :, kept].transpose(0, 2, 1, 3)))
    lengths = np.array([math.hypot(*row) for row in minors.tolist()])
    reach = (diffs * diffs).sum(-1).max(-1, initial=0.0)
    if _flat((lengths / math.factorial(K - 1)) ** 2, reach, K - 1).any():
        raise DegenerateSpan("anchor points do not span a hyperplane")
    normals = minors / lengths[:, None]
    # A unit normal always has a component above EPS_NORMAL: the pivot.
    pivots = (np.abs(normals) > EPS_NORMAL).argmax(1)
    flip = normals[np.arange(F), pivots] < 0.0
    if references is not None:
        along = row_dots(normals, np.asarray(references, dtype=float))
        flip = (along < -EPS_NORMAL) | ((np.abs(along) <= EPS_NORMAL) & flip)
    normals = np.where(flip[:, None], -normals, normals)
    offsets = np.matmul(X, normals[:, :, None])[:, :, 0].sum(-1) / K
    return normals, offsets, pivots, minors


def reflect_stack(normals, offsets, pivots, points) -> np.ndarray:
    """Mirror images of the points (S, T, K) across S planes, one per row.

    Row s of ``points`` is reflected across the plane with unit normal
    ``normals[s]`` (S, K), offset ``offsets[s]`` and pivot ``pivots[s]``, as
    :func:`_anchor_planes` returns them.  The plane is translated through the
    origin along its pivot axis, the linear reflection I - 2 a a^T is applied
    and the translation undone.  The map is an involution and an isometry,
    and points on the plane are fixed.
    """
    a = np.ascontiguousarray(normals, dtype=float)  # see row_dots
    q = np.array(points, dtype=float)
    rows = np.arange(len(a))
    pivots = np.asarray(pivots)
    shift = np.asarray(offsets, dtype=float) / a[rows, pivots]
    q[rows, :, pivots] -= shift[:, None]
    q = q - 2.0 * row_dots(q, a[:, None, :])[..., None] * a[:, None, :]
    q[rows, :, pivots] += shift[:, None]
    return q


# ExtensionStack.kind codes, the number of distinct intersection points.
_EMPTY, _TANGENT, _PAIR = range(3)


@dataclass(frozen=True)
class ExtensionStack:
    """Sphere intersections of F anchor sets, one row each.

    ``kind[f]`` is the number of distinct intersection points: 0 (empty), 1
    (tangent) or 2 (pair).  ``points[f, s]`` is the placement with side bit
    ``s`` and ``placed[f, s]`` says whether there is one: both sides of a
    pair, the one side of the plane a tangent point falls on (it fills both
    slots), neither side when empty (those points are NaN).  ``normals``,
    ``offsets`` and ``pivots`` are the oriented anchor planes, as
    :func:`_anchor_planes` gives them.
    """

    kind: np.ndarray
    points: np.ndarray
    placed: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray
    pivots: np.ndarray


def extend_stack(anchors, radii, references=None) -> ExtensionStack:
    """Intersect the K spheres ``|z - anchors[f, u]| = radii[u]`` for every f.

    ``anchors`` is (F, K, K), ``radii`` (K,) and shared by all rows,
    ``references`` (F, K) or None.  This is the one placement primitive of
    the package, and each row comes out bit for bit as a stack of that row
    alone would give it.  The signed maximal minors of the anchor
    differences give both the oriented anchor hyperplane (see
    :func:`_anchor_planes`, whose ``references`` rule applies) and the
    elimination pivot: subtracting the squared sphere equation of the last
    anchor (the highest ranked one) from the others leaves K-1 linear
    equations, which are solved for every coordinate but the one with the
    largest minor, reducing the system to one quadratic in that coordinate.
    Its discriminant decides between zero, one (tangent) and two
    intersection points.  The two points of a PAIR come in side order: the
    one with the smaller signed offset from the plane first, the first root
    on a tie.  Raises DegenerateSpan if any row's anchors are degenerate.
    """
    X = np.asarray(anchors, dtype=float)
    if X.ndim != 3 or X.shape[1] != X.shape[2]:
        raise DimensionMismatch(f"expected K anchors in R^K, got array of shape {X.shape}")
    r = np.asarray(radii, dtype=float)
    F, K = X.shape[0], X.shape[2]
    if r.shape != (K,):
        raise DimensionMismatch(f"expected {K} radii, got array of shape {r.shape}")
    if (r <= 0.0).any():
        raise ValueError("radii must be positive")
    normals, offsets, pivots, minors = _anchor_planes(X, references)

    rows = np.arange(F)
    w = X[:, -1]
    rw = float(r[-1])
    A = 2.0 * (X[:, :-1] - w[:, None])
    b = np.sum(X[:, :-1] ** 2, axis=2) - row_dots(w, w)[:, None] - r[:-1] ** 2 + rw**2
    # The largest minor is at least |minors|/sqrt(K), which the flatness test
    # in _anchor_planes keeps away from zero, so this block is regular.
    free = np.abs(minors).argmax(1)
    kept, _, slots = _cofactor_layout(K)
    # x[:, ..., kept][rows, ..., free] keeps, in row f, every column but free[f].
    solved = np.linalg.solve(A[:, :, kept][rows, :, free],
                             np.stack([b, A[rows, :, free]], axis=-1))
    part = solved[..., 0]
    slope = solved[..., 1]
    diff = part - w[:, kept][rows, free]
    wf = w[rows, free]
    qa = row_dots(slope, slope) + 1.0
    qb = -2.0 * (row_dots(slope, diff) + wf)
    # Python's float power, not numpy's square: they differ in the last bit.
    qc = row_dots(diff, diff) + np.array([x**2 for x in wf.tolist()]) - rw**2

    disc = qb * qb - 4.0 * qa * qc
    eps_disc = DISC_CLAMP * float(np.max(r)) ** 2
    kind = np.where(disc < -eps_disc, _EMPTY, np.where(disc <= eps_disc, _TANGENT, _PAIR))
    pair = kind == _PAIR
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(disc)
        # Stable quadratic formula: avoid cancellation between -qb and the root.
        shifted = np.where(qb != 0.0, -0.5 * (qb + np.copysign(root, qb)), -0.5 * root)
        z0 = np.where(pair, shifted / qa, -qb / (2.0 * qa))
        zf = np.stack([z0, np.where(pair, qc / shifted, z0)], axis=1)
    zf[kind == _EMPTY] = np.nan
    coords = np.concatenate([part[:, None, :] - slope[:, None, :] * zf[:, :, None],
                             zf[:, :, None]], axis=2)
    points = np.ascontiguousarray(coords[:, :, slots][rows, :, free])  # see row_dots
    along = row_dots(normals[:, None, :], points)
    swap = pair & (along[:, 0] > along[:, 1])
    points[swap] = points[swap, ::-1]
    upper = along[:, 0] - offsets > 0.0
    placed = np.stack([pair | ((kind == _TANGENT) & ~upper),
                       pair | ((kind == _TANGENT) & upper)], axis=1)
    return ExtensionStack(kind, points, placed, normals, offsets, pivots)
