"""Exact small-dimension geometry primitives.

A point is a length-K numpy vector; a set of anchors is a (K, K) array with
one point per row, ordered by vertex rank.  These are the building blocks of
the vertex-placement step: the simplex-volume test that guards against
degenerate anchors, the hyperplane through K anchor points, the mirror image
across it, and the two-point intersection of the K spheres centred at the
anchors.

All functions are pure and never mutate their arguments, so they are safe to
call from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateSpan, DimensionMismatch, NegativeDeterminant, SingularPivot

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


def _canonical_sign(a: np.ndarray) -> np.ndarray:
    """Flip ``a`` so its first nonzero component is positive."""
    for value in a:
        if abs(value) > EPS_NORMAL:
            return a if value > 0 else -a
    return a


def hyperplane_through(points, reference=None, eps_rank: float = EPS_RANK) -> Hyperplane:
    """Fit the hyperplane containing K points of R^K.

    The points must affinely span a (K-1)-flat, otherwise DegenerateSpan is
    raised.  Orientation: the normal is flipped, if necessary, so that
    ``normal . reference >= 0``; when no reference is given (or the dot
    product vanishes) the first nonzero component of the normal is made
    positive instead, which keeps the labelling deterministic.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"expected K points of R^K, got array of shape {P.shape}")
    K = P.shape[1]
    if K == 1:
        normal = np.array([1.0])
    else:
        diffs = P[1:] - P[0]
        _, sing, vt = np.linalg.svd(diffs)
        if sing[0] <= 0.0 or sing[-1] <= eps_rank * sing[0]:
            raise DegenerateSpan("anchor points do not span a hyperplane")
        normal = vt[-1]
    if reference is not None:
        along = float(normal @ np.asarray(reference, dtype=float))
        if along < -EPS_NORMAL:
            normal = -normal
        elif abs(along) <= EPS_NORMAL:
            normal = _canonical_sign(normal)
    else:
        normal = _canonical_sign(normal)
    normal = np.array(normal, dtype=float)
    offset = float(np.mean(P @ normal))
    pivot = int(np.argmax(np.abs(normal) > EPS_NORMAL))
    return Hyperplane(normal=normal, offset=offset, pivot_index=pivot)


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

    ``discriminant`` is the raw quadratic discriminant before the tangency
    band is applied; ``points`` holds 0, 1 or 2 placements.
    """

    kind: ExtensionKind
    points: tuple
    discriminant: float


def extend_positions(anchors, radii, free_column: int | None = None,
                     eps_rank: float = EPS_RANK) -> ExtensionResult:
    """Intersect the K spheres ``|z - anchor_u| = radius_u`` in R^K.

    Subtracting the squared sphere equation of the last anchor (the highest
    ranked one) from the others leaves K-1 linear equations; eliminating K-1
    coordinates against the best-conditioned column block reduces the system
    to one quadratic in the remaining coordinate.  Its discriminant decides
    between zero, one (tangent) and two intersection points; the two points
    of a PAIR are mirror images across the hyperplane through the anchors.

    ``free_column`` forces which coordinate is kept as the quadratic
    variable; by default the column whose removal leaves the largest
    elimination block determinant is chosen.  The returned point set does not
    depend on that choice beyond round-off.
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
    if free_column is not None and not 0 <= free_column < K:
        raise ValueError(f"free_column must be in [0, {K}), got {free_column}")

    w = X[-1]
    rw = float(r[-1])
    if K == 1:
        free = 0
        basis = np.array([], dtype=int)
        part = np.zeros(0)
        slope = np.zeros(0)
        qa = 1.0
        qb = -2.0 * float(w[0])
        qc = float(w[0]) ** 2 - rw**2
    else:
        A = 2.0 * (X[:-1] - w)
        b = np.sum(X[:-1] ** 2, axis=1) - float(w @ w) - r[:-1] ** 2 + rw**2
        row_scale = 1.0
        for row in A:
            row_scale *= max(float(np.linalg.norm(row)), 1e-300)
        dets = np.array([float(np.linalg.det(np.delete(A, j, axis=1))) for j in range(K)])
        # Cauchy-Binet: sum of squared minors equals the Gram determinant, so
        # this is a volume test for the anchor simplex.
        if math.sqrt(float(np.sum(dets**2))) <= eps_rank * row_scale:
            raise DegenerateSpan("anchor points do not span a hyperplane")
        free = int(np.argmax(np.abs(dets))) if free_column is None else free_column
        if abs(dets[free]) <= EPS_NORMAL * row_scale:
            raise SingularPivot(f"free column {free} leaves a singular elimination block")
        basis = np.array([j for j in range(K) if j != free])
        B = A[:, basis]
        solved = np.linalg.solve(B, np.column_stack([b, A[:, free]]))
        part = solved[:, 0]
        slope = solved[:, 1]
        wB = w[basis]
        wf = float(w[free])
        diff = part - wB
        qa = float(slope @ slope) + 1.0
        qb = -2.0 * (float(slope @ diff) + wf)
        qc = float(diff @ diff) + wf**2 - rw**2

    disc = qb * qb - 4.0 * qa * qc
    eps_disc = DISC_CLAMP * float(np.max(r)) ** 2

    def assemble(zf: float) -> np.ndarray:
        z = np.empty(K)
        if K > 1:
            z[basis] = part - slope * zf
        z[free] = zf
        return z

    if disc < -eps_disc:
        return ExtensionResult(ExtensionKind.EMPTY, (), disc)
    if disc <= eps_disc:
        return ExtensionResult(ExtensionKind.TANGENT, (assemble(-qb / (2.0 * qa)),), disc)
    root = math.sqrt(disc)
    # Stable quadratic formula: avoid cancellation between -qb and the root.
    shifted = -0.5 * (qb + math.copysign(root, qb)) if qb != 0.0 else -0.5 * root
    z_first = shifted / qa
    z_second = qc / shifted
    return ExtensionResult(
        ExtensionKind.PAIR, (assemble(z_first), assemble(z_second)), disc
    )
