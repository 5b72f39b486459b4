"""Exact small-dimension geometry primitives.

A point is a length-K numpy vector; a set of anchors is a (K, K) array with
one point per row, ordered by vertex rank.  These are the building blocks of
the vertex-placement step: the simplex-volume test that guards against
degenerate anchors, the hyperplane through K anchor points, the mirror image
across it, and the two-point intersection of the K spheres centred at the
anchors.

All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, NegativeDeterminant

#: Threshold below which a normal component counts as zero (pivot selection,
#: canonical orientation, orientation ties).
EPS_NORMAL = 1e-12

#: Normalised simplex-volume threshold under which an anchor set is treated
#: as degenerate.
EPS_RANK = 1e-12

#: Tangency band: a raw discriminant within +/- DISC_CLAMP * (max radius)**2
#: is treated as zero.
DISC_CLAMP = 1e-12


def cayley_menger_volume(sq_dists, dim: int) -> float:
    """Volume of the ``dim``-simplex given its squared pairwise distances.

    ``sq_dists`` is the symmetric (dim+1) x (dim+1) matrix of squared
    distances between the simplex vertices; only distances are needed, never
    coordinates, so the test applies equally to edge-weighted cliques.  The
    0-simplex (a single point) has volume 1 by convention.

    Returns 0.0 for flat (degenerate) configurations.  Raises
    NegativeDeterminant when the distances cannot be realised by points in
    any Euclidean space, and DimensionMismatch for a wrongly sized matrix.
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
    # Band wide enough to absorb determinant round-off, narrow enough not to
    # swallow volumes near the genericity threshold used by the generators.
    band = 1e-13 * max(1.0, float(D.max())) ** dim
    if abs(squared) <= band:
        return 0.0
    if squared < 0.0:
        raise NegativeDeterminant(
            f"distances are not embeddable: squared volume = {squared:.6e}"
        )
    return math.sqrt(squared)


@dataclass(frozen=True)
class Hyperplane:
    """Oriented affine hyperplane ``{x : normal . x = offset}``.

    ``normal`` is a unit vector; ``pivot_index`` is the smallest index whose
    normal component is nonzero, used by the affine reflection formula.
    """

    normal: np.ndarray
    offset: float
    pivot_index: int

    def side(self, point) -> int:
        """Side bit of ``point``: 0 on or behind the plane, 1 in front of it."""
        return 0 if float(self.normal @ point) - self.offset <= 0.0 else 1


def _canonical_sign(a: np.ndarray) -> np.ndarray:
    """Flip ``a`` so its first nonzero component is positive."""
    for value in a:
        if abs(value) > EPS_NORMAL:
            return a if value > 0 else -a
    return a


@functools.lru_cache(maxsize=None)
def _cofactor_layout(K: int) -> tuple:
    """Row j lists every column of a (K-1, K) matrix but j; signs are (-1)**j."""
    kept = np.arange(K - 1)
    kept = kept + (kept >= np.arange(K)[:, None])
    signs = (-1.0) ** np.arange(K)
    kept.flags.writeable = signs.flags.writeable = False
    return kept, signs


def _anchor_plane(X: np.ndarray, reference) -> tuple[Hyperplane, np.ndarray]:
    """Oriented hyperplane through the K rows of ``X``, with its raw normal.

    The raw normal holds the signed maximal minors of the anchor differences
    ``X[:-1] - X[-1]``: entry j is (-1)**j times the minor left by deleting
    column j, the generalized cross product of the K-1 rows ((1,) when
    K = 1).  By Cauchy-Binet its length is the Gram volume of the rows; when
    that is negligible against the product of the row lengths the anchors
    are degenerate and DegenerateSpan is raised.
    """
    K = X.shape[1]
    diffs = X[:-1] - X[-1]
    kept, signs = _cofactor_layout(K)
    minors = signs * np.linalg.det(diffs[:, kept].transpose(1, 0, 2))
    length = math.hypot(*minors.tolist())
    row_scale = math.prod(max(math.hypot(*row), 1e-300) for row in diffs.tolist())
    if length <= EPS_RANK * row_scale:
        raise DegenerateSpan("anchor points do not span a hyperplane")
    normal = minors / length
    if reference is not None:
        along = float(normal @ np.asarray(reference, dtype=float))
        if along < -EPS_NORMAL:
            normal = -normal
        elif abs(along) <= EPS_NORMAL:
            normal = _canonical_sign(normal)
    else:
        normal = _canonical_sign(normal)
    offset = float((X @ normal).sum()) / K
    pivot = int(np.argmax(np.abs(normal) > EPS_NORMAL))
    return Hyperplane(normal=normal, offset=offset, pivot_index=pivot), minors


def hyperplane_through(points, reference=None) -> Hyperplane:
    """Oriented hyperplane through K points of R^K.

    The normal is the normalised vector of signed anchor minors, the same
    one :func:`extend_positions` returns as ``ext.plane``; DegenerateSpan is
    raised when the points do not affinely span a (K-1)-flat.  Orientation:
    the normal is flipped, if necessary, so that ``normal . reference >= 0``;
    when no reference is given (or the dot product vanishes) the first
    nonzero component of the normal is made positive instead, which keeps
    the labelling deterministic.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"expected K points of R^K, got array of shape {P.shape}")
    return _anchor_plane(P, reference)[0]


def reflect(plane: Hyperplane, point) -> np.ndarray:
    """Mirror image of ``point`` across ``plane``.

    Translates the plane through the origin along its pivot axis, applies the
    linear reflection I - 2 a a^T, and translates back.  The map is an
    involution and an isometry; points on the plane are fixed.
    """
    a = plane.normal
    p = np.asarray(point, dtype=float)
    shift = plane.offset / a[plane.pivot_index]
    q = p.copy()
    q[plane.pivot_index] -= shift
    q = q - 2.0 * float(a @ q) * a
    q[plane.pivot_index] += shift
    return q


class ExtensionKind(Enum):
    EMPTY = "empty"
    TANGENT = "tangent"
    PAIR = "pair"


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of intersecting the K anchor spheres.

    ``plane`` is the oriented hyperplane through the anchors, as
    :func:`hyperplane_through` gives it.  ``points`` holds 0, 1 or 2
    placements; a PAIR is a mirror pair across ``plane`` listed side 0 first,
    so ``points[s]`` is the placement with side bit ``s``.  ``discriminant``
    is the raw quadratic discriminant before the tangency band is applied.
    """

    kind: ExtensionKind
    points: tuple
    discriminant: float
    plane: Hyperplane


def extend_positions(anchors, radii, reference=None) -> ExtensionResult:
    """Intersect the K spheres ``|z - anchor_u| = radius_u`` in R^K.

    This is the one geometry call per placed vertex.  The signed maximal
    minors of the anchor differences give both the oriented anchor
    hyperplane (see :func:`hyperplane_through`, whose ``reference`` rule
    applies) and the elimination pivot: subtracting the squared sphere
    equation of the last anchor (the highest ranked one) from the others
    leaves K-1 linear equations, which are solved for every coordinate but
    the one with the largest minor, reducing the system to one quadratic in
    that coordinate.  Its discriminant decides between zero, one (tangent)
    and two intersection points.  The two points of a PAIR come back in side
    order: the one with the smaller signed offset from the plane first, the
    first root on a tie.
    """
    X = np.asarray(anchors, dtype=float)
    r = np.asarray(radii, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionMismatch(f"expected K anchors in R^K, got array of shape {X.shape}")
    K = X.shape[1]
    if r.shape != (K,):
        raise DimensionMismatch(f"expected {K} radii, got array of shape {r.shape}")
    if np.any(r <= 0.0):
        raise ValueError("radii must be positive")
    plane, minors = _anchor_plane(X, reference)

    w = X[-1]
    rw = float(r[-1])
    A = 2.0 * (X[:-1] - w)
    b = np.sum(X[:-1] ** 2, axis=1) - float(w @ w) - r[:-1] ** 2 + rw**2
    # The largest minor is at least |minors|/sqrt(K), which the volume test
    # in _anchor_plane keeps away from zero, so this block is regular.
    free = int(np.argmax(np.abs(minors)))
    basis = _cofactor_layout(K)[0][free]
    solved = np.linalg.solve(A[:, basis], np.column_stack([b, A[:, free]]))
    part = solved[:, 0]
    slope = solved[:, 1]
    diff = part - w[basis]
    wf = float(w[free])
    qa = float(slope @ slope) + 1.0
    qb = -2.0 * (float(slope @ diff) + wf)
    qc = float(diff @ diff) + wf**2 - rw**2

    disc = qb * qb - 4.0 * qa * qc
    eps_disc = DISC_CLAMP * float(np.max(r)) ** 2

    def assemble(zf: float) -> np.ndarray:
        z = np.empty(K)
        z[basis] = part - slope * zf
        z[free] = zf
        return z

    if disc < -eps_disc:
        return ExtensionResult(ExtensionKind.EMPTY, (), disc, plane)
    if disc <= eps_disc:
        return ExtensionResult(
            ExtensionKind.TANGENT, (assemble(-qb / (2.0 * qa)),), disc, plane)
    root = math.sqrt(disc)
    # Stable quadratic formula: avoid cancellation between -qb and the root.
    shifted = -0.5 * (qb + math.copysign(root, qb)) if qb != 0.0 else -0.5 * root
    pair = (assemble(shifted / qa), assemble(qc / shifted))
    if float(plane.normal @ pair[0]) > float(plane.normal @ pair[1]):
        pair = pair[::-1]
    return ExtensionResult(ExtensionKind.PAIR, pair, disc, plane)
