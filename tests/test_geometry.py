import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dgbp.errors import DegenerateSpan, DimensionMismatch, NegativeDeterminant
from dgbp.geometry import (
    EPS_NORMAL,
    _EMPTY,
    _PAIR,
    _TANGENT,
    EPS_TANGENT,
    _cofactor_layout,
    _flat,
    cayley_menger_volume,
    extend_stack,
    _anchor_planes,
    level_table,
    reflect_stack,
    row_dots,
)
from dgbp.instance import regular_simplex
from spheres import table_row


def sq_dist_matrix(points):
    P = np.asarray(points, dtype=float)
    diff = P[:, None, :] - P[None, :, :]
    return np.sum(diff**2, axis=2)


def plane(points, reference=None):
    """``(normal, base)`` of the oriented plane through one anchor set: base is a_K."""
    refs = None if reference is None else np.asarray([reference], dtype=float)
    X = np.asarray([points], dtype=float)
    return _anchor_planes(X, refs)[0], X[0, -1]


def side(normal, base, point) -> int:
    """The side bit: 0 when ``normal . (point - base) <= 0``, else 1."""
    return 0 if float(normal @ (point - base)) <= 0.0 else 1


def mirror(normal, base, point):
    """``point`` reflected across one plane, by reflect_stack on a stack of one."""
    p = np.asarray(point, dtype=float)[None, None]
    return reflect_stack(np.asarray([normal], dtype=float), np.asarray([base], dtype=float),
                         p)[0, 0]


def extend_one(anchors, radii, reference=None):
    """extend_stack on a stack of one anchor set, spheres of the given radii."""
    refs = None if reference is None else np.asarray([reference], dtype=float)
    return extend_stack(np.asarray([anchors], dtype=float), *table_row(anchors, radii), refs)


def random_anchors(rng, K, min_volume=1e-6):
    """Anchor sets drawn like the instance generator: unit box, volume gate."""
    while True:
        pts = rng.random((K, K))
        if K == 1:
            return pts
        M = pts[1:] - pts[0]
        vol = math.sqrt(max(float(np.linalg.det(M @ M.T)), 0.0)) / math.factorial(K - 1)
        if vol >= min_volume:
            return pts


class TestCayleyMenger:
    def test_segment_length(self):
        assert cayley_menger_volume([[0, 25], [25, 0]], 1) == pytest.approx(5.0, abs=1e-12)

    def test_right_triangle_area(self):
        sq = [[0, 9, 25], [9, 0, 16], [25, 16, 0]]
        assert cayley_menger_volume(sq, 2) == pytest.approx(6.0, abs=1e-12)

    def test_collinear_is_flat(self):
        sq = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]
        assert cayley_menger_volume(sq, 2) == 0.0

    def test_unit_equilateral_area(self):
        sq = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert cayley_menger_volume(sq, 2) == pytest.approx(math.sqrt(3) / 4, abs=1e-12)

    def test_single_point_has_unit_volume(self):
        assert cayley_menger_volume([[0.0]], 0) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cayley_menger_volume([[0, 1], [1, 0]], 2)

    def test_non_embeddable_distances_raise(self):
        # triangle inequality violated by far more than round-off
        sq = [[0, 1, 100], [1, 0, 1], [100, 1, 0]]
        with pytest.raises(NegativeDeterminant):
            cayley_menger_volume(sq, 2)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            cayley_menger_volume([[0, 1], [2, 0]], 1)

    @pytest.mark.parametrize("K", [2, 3])
    def test_congruence_invariance(self, K):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pts = rng.normal(size=(K + 1, K))
            q, _ = np.linalg.qr(rng.normal(size=(K, K)))
            moved = pts @ q.T + rng.normal(size=K)
            v1 = cayley_menger_volume(sq_dist_matrix(pts), K)
            v2 = cayley_menger_volume(sq_dist_matrix(moved), K)
            assert v2 == pytest.approx(v1, rel=1e-9, abs=1e-12)


class TestHyperplane:
    """The oriented anchor hyperplane, by _anchor_planes on a stack of one."""

    def test_x_axis_canonical(self):
        normal, _ = plane([[0, 0], [1, 0]])
        assert np.allclose(normal, [0, 1], atol=1e-12)

    def test_reference_flips_normal(self):
        normal, _ = plane([[0, 0], [1, 0]], reference=[0, -1])
        assert np.allclose(normal, [0, -1], atol=1e-12)

    @pytest.mark.parametrize("reference", [[1, 0], [-1, 0], [2.5, -1e-13]])
    def test_orthogonal_reference_keeps_canonical_sign(self, reference):
        # |normal . reference| <= EPS_NORMAL is a tie: the pivot stays positive
        normal, _ = plane([[0, 0], [1, 0]], reference=reference)
        assert normal.tolist() == [0.0, 1.0]

    def test_symmetric_plane_k3(self):
        normal, base = plane([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert np.allclose(normal, np.ones(3) / math.sqrt(3), atol=1e-12)
        assert normal @ base == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_single_point_k1(self):
        normal, base = plane([[2.5]])
        assert normal[0] == 1.0
        assert [side(normal, base, [x]) for x in (2.0, 2.5, 3.0)] == [0, 0, 1]

    def test_degenerate_span(self):
        with pytest.raises(DegenerateSpan):
            plane([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(DegenerateSpan):
            plane([[1, 1], [1, 1]])

    def test_contains_points_and_unit_normal(self):
        rng = np.random.default_rng(11)
        for K in (2, 3, 4):
            for _ in range(40):
                pts = random_anchors(rng, K)
                normal, base = plane(pts)
                assert abs(np.linalg.norm(normal) - 1.0) <= 1e-12
                assert np.max(np.abs((pts - base) @ normal)) <= 1e-10


def anchor_planes_reference(X: np.ndarray, references) -> np.ndarray:
    """``_anchor_planes`` as first written: pivot by 2-D indexing, flips by ``np.where``."""
    F, K = X.shape[0], X.shape[2]
    diffs = X[:, :-1] - X[:, -1:]
    kept, signs = _cofactor_layout(K)
    minors = signs * np.linalg.det(np.ascontiguousarray(diffs[:, :, kept].transpose(0, 2, 1, 3)))
    lengths = np.sqrt(row_dots(minors, minors))
    reach = (diffs * diffs).sum(-1).max(-1, initial=0.0)
    if _flat((lengths / math.factorial(K - 1)) ** 2, reach, K - 1).any():
        raise DegenerateSpan("anchor points do not span a hyperplane")
    normals = minors / lengths[:, None]
    flip = normals[np.arange(F), (np.abs(normals) > EPS_NORMAL).argmax(1)] < 0.0
    if references is not None:
        along = row_dots(normals, np.asarray(references, dtype=float))
        flip = (along < -EPS_NORMAL) | ((np.abs(along) <= EPS_NORMAL) & flip)
    return np.where(flip[:, None], -normals, normals)


#: Normal components and reference offsets at and around EPS_NORMAL, either sign.
NEAR_TIES = [0.0, 5e-13, 1e-12 * (1 - 1e-9), 1e-12, 1e-12 * (1 + 1e-9), 2e-12]


class TestAnchorPlanesReference:
    """_anchor_planes against the formula it replaced, bit for bit, ties included."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=300, derandomize=True)
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        F = int(rng.integers(1, 13))
        X = np.empty((F, K, K))
        for f in range(F):
            # a unit normal whose components sit at or near the pivot
            # threshold, and anchors spanning the plane orthogonal to it
            normal = rng.normal(size=K)
            small = rng.random(K) < 0.5
            normal[small] = rng.choice(NEAR_TIES, small.sum()) * rng.choice([-1.0, 1.0], small.sum())
            if not np.abs(normal).max() > 0.5:
                normal[rng.integers(K)] = rng.choice([-1.0, 1.0])
            normal /= np.linalg.norm(normal)
            basis = np.linalg.svd(normal[None])[2][1:]
            X[f] = rng.normal(size=K) + np.vstack([basis, np.zeros((1, K))]) * rng.uniform(0.5, 2)
        mode = rng.integers(3)
        if mode == 0:
            refs = None
        else:
            refs = rng.normal(size=(F, K))
            if mode == 2:
                # references within EPS_NORMAL of orthogonal to the canonical normal
                canon = anchor_planes_reference(X, None)
                refs -= row_dots(refs, canon)[:, None] * canon
                offsets = rng.choice(NEAR_TIES, F) * rng.choice([-1.0, 1.0], F)
                refs += offsets[:, None] * canon
        want = anchor_planes_reference(X, refs)
        got = _anchor_planes(X, refs)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_degenerate_rows_raise_in_both(self):
        X = np.array([[[0.0, 0.0], [1.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]]])
        for planes in (_anchor_planes, anchor_planes_reference):
            with pytest.raises(DegenerateSpan):
                planes(X, None)


class TestReflect:
    """reflect_stack, on one point and on stacks."""

    def test_mirror_across_x_axis(self):
        assert np.allclose(mirror(*plane([[0, 0], [1, 0]]), [1, 1]), [1, -1], atol=1e-12)

    def test_point_on_plane_is_fixed(self):
        assert np.allclose(mirror([1.0, 0.0], [2.0, -3.0], [2, 7]), [2, 7], atol=1e-12)

    def test_offset_plane_mirror(self):
        assert np.allclose(mirror([1.0, 0.0], [2.0, -3.0], [0, 0]), [4, 0], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, derandomize=True)
    def test_involution_and_isometry(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        vec = rng.normal(size=K)
        while np.linalg.norm(vec) < 1e-3:
            vec = rng.normal(size=K)
        normal = vec / np.linalg.norm(vec)
        h = (normal, rng.normal(size=K))
        p, q = rng.normal(size=K), rng.normal(size=K)
        assert np.max(np.abs(mirror(*h, mirror(*h, p)) - p)) <= 1e-12
        d0 = np.linalg.norm(p - q)
        d1 = np.linalg.norm(mirror(*h, p) - mirror(*h, q))
        assert abs(d1 - d0) <= 1e-12 + 1e-12 * d0


    @given(st.integers(0, 10_000))
    @settings(max_examples=200, derandomize=True)
    def test_stack_rows_match_scalar_formula_bit_for_bit(self, seed):
        def scalar(a, base, point):
            # the single-point formula reflect_stack generalises
            return point - 2.0 * float(a @ (point - base)) * a

        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        S, T = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        anchors = np.stack([random_anchors(rng, K) for _ in range(S)])
        refs = rng.normal(size=(S, K)) if rng.random() < 0.5 else None
        normals = _anchor_planes(anchors, refs)
        bases = anchors[:, -1]
        points = rng.normal(size=(S, T, K)) * 10.0 ** rng.integers(-3, 4)
        before = points.copy()
        mirrored = reflect_stack(normals, bases, points)
        assert mirrored.shape == (S, T, K)
        assert np.array_equal(points, before)
        for s in range(S):
            h = (normals[s], bases[s])
            for t in range(T):
                want = scalar(*h, points[s, t]).tobytes()
                assert mirrored[s, t].tobytes() == want
                assert mirror(*h, points[s, t]).tobytes() == want


def numeric_sphere_roots(anchors, radii, starts=100, seed=0):
    """Independent oracle: multi-start numeric solve of the sphere system."""
    from scipy.optimize import fsolve

    anchors = np.asarray(anchors, dtype=float)
    radii = np.asarray(radii, dtype=float)

    def equations(z):
        return np.linalg.norm(anchors - z, axis=1) ** 2 - radii**2

    rng = np.random.default_rng(seed)
    roots = []
    for _ in range(starts):
        z0 = rng.uniform(-2.0, 3.0, size=anchors.shape[1])
        z, _, ier, _ = fsolve(equations, z0, full_output=True)
        if ier == 1 and np.max(np.abs(equations(z))) < 1e-10:
            for r in roots:
                if np.linalg.norm(r - z) < 1e-6:
                    break
            else:
                roots.append(z)
    return sorted(roots, key=lambda r: tuple(np.round(r, 9)))


class TestExtendPositions:
    """extend_stack on stacks of one anchor set."""

    def test_unit_circle_pair(self):
        ext = extend_one([[0, 0], [1, 0]], [1, 1])
        assert ext.kind == _PAIR
        assert ext.placed.tolist() == [[True, True]]
        got = sorted(map(tuple, ext.points[0]))
        want = [(0.5, -math.sqrt(3) / 2), (0.5, math.sqrt(3) / 2)]
        assert np.allclose(got, want, atol=1e-12)

    def test_disjoint_circles_empty(self):
        ext = extend_one([[0, 0], [1, 0]], [1, 3])
        assert ext.kind == _EMPTY
        assert ext.placed.tolist() == [[False, False]]
        assert np.isnan(ext.points).all()

    def test_tangent_circles(self):
        ext = extend_one([[0, 0], [2, 0]], [1, 1])
        assert ext.kind == _TANGENT
        assert ext.placed[0].sum() == 1
        assert np.array_equal(ext.points[0, 0], ext.points[0, 1])
        assert np.allclose(ext.points[0, 0], [1, 0], atol=1e-12)

    def test_three_spheres_match_numeric_oracle(self):
        anchors = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        radii = [1, 1, 1]
        # frozen values, confirmed by the multi-start oracle below
        frozen = [(0.5, 0.5, -0.7071067811865476), (0.5, 0.5, 0.7071067811865476)]
        oracle = numeric_sphere_roots(anchors, radii)
        assert len(oracle) == 2
        assert np.allclose(oracle, frozen, atol=1e-9)
        ext = extend_one(anchors, radii)
        assert ext.kind == _PAIR
        assert np.allclose(sorted(map(tuple, ext.points[0])), frozen, atol=1e-9)

    def test_k1_two_points_on_line(self):
        ext = extend_one([[3.0]], [2.0])
        assert ext.kind == _PAIR
        assert sorted(p[0] for p in ext.points[0]) == pytest.approx([1.0, 5.0])

    def test_degenerate_anchors(self):
        with pytest.raises(DegenerateSpan):
            extend_stack([[[0, 0, 0], [1, 0, 0], [2, 0, 0]]], [0.5, 0.5], 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            extend_stack([[0, 0], [1, 0]], [0.5], 0.75)  # one anchor set, not a stack
        with pytest.raises(DimensionMismatch):
            extend_stack([[[0, 0, 0], [1, 0, 0]]], [0.5, 0.5], 0.75)  # 2 anchors in R^3
        with pytest.raises(DimensionMismatch):
            extend_stack([[[0, 0], [1, 0]]], [0.5, 0.5], 0.75)  # K - 1 = 1 weight

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_pair_points_are_reflections_and_on_spheres(self, K):
        rng = np.random.default_rng(31)
        for _ in range(200):
            anchors = random_anchors(rng, K)
            target = rng.random(K)
            radii = np.linalg.norm(anchors - target, axis=1)
            if np.any(radii <= 1e-6):
                continue
            ext = extend_one(anchors, radii)
            assert ext.kind == _PAIR
            z1, z2 = ext.points[0]
            assert np.max(np.abs(mirror(ext.normals[0], anchors[-1], z1) - z2)) <= 1e-9
            for z in ext.points[0]:
                residual = np.abs(np.linalg.norm(anchors - z, axis=1) - radii)
                assert np.max(residual / np.maximum(radii, 1e-12)) <= 1e-9
            # the sampled target must be one of the two intersection points
            assert min(np.linalg.norm(z1 - target), np.linalg.norm(z2 - target)) <= 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, derandomize=True)
    def test_pair_carries_oriented_plane_in_side_order(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        anchors = random_anchors(rng, K, min_volume=1e-3)
        target = rng.random(K)
        reference = rng.normal(size=K)
        radii = np.linalg.norm(anchors - target, axis=1)
        assume(np.all(radii > 1e-6))
        ext = extend_one(anchors, radii, reference)
        assume(ext.kind == _PAIR)
        normal, base = plane(anchors, reference)
        assert np.array_equal(ext.normals[0], normal)
        assert [side(normal, base, z) for z in ext.points[0]] == [0, 1]
        along = float(normal @ reference)
        if abs(along) > EPS_NORMAL:
            assert along > 0.0
        # the SVD null vector of the anchor differences, as an outside reference
        null = np.array([1.0]) if K == 1 else np.linalg.svd(anchors[1:] - anchors[0])[2][-1]
        assert min(np.linalg.norm(normal - null), np.linalg.norm(normal + null)) <= 1e-12


def anchors_around(rng, radii, kind):
    """K anchors at distance ``radii[u]`` (times 1.5 for EMPTY) from a point z.

    PAIR: random directions, so z is one of two intersection points.  TANGENT
    and EMPTY (K >= 2): directions that positively span a hyperplane through
    z, so z is the only point on all spheres, or, pushed out, there is none.
    """
    K = len(radii)
    z = rng.random(K)
    if kind == _PAIR:
        d = rng.normal(size=(K, K))
        return z + radii[:, None] * d / np.linalg.norm(d, axis=1, keepdims=True)
    v = regular_simplex(K - 1)
    v = v - v.mean(0)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    basis = np.linalg.qr(rng.normal(size=(K, K)))[0][:, : K - 1]
    scale = 1.0 if kind == _TANGENT else 1.5
    return z + scale * radii[:, None] * (v @ basis.T)


def rigid_copies(rng, anchors, F):
    """F copies of ``anchors`` (K, K), each turned and moved at random: congruent rows."""
    K = anchors.shape[1]
    copies = []
    for _ in range(F):
        q, r = np.linalg.qr(rng.normal(size=(K, K)))
        copies.append(anchors @ (q * np.sign(np.diag(r))).T + rng.normal(size=K) * 10.0)
    return np.stack(copies)


class TestExtendStack:
    FIELDS = ("points", "placed", "normals")

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, derandomize=True)
    def test_rows_match_batch_of_one_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        F = int(rng.integers(1, 10))
        radii = rng.uniform(0.5, 2.0, K)
        kind = _PAIR if K == 1 else int(rng.integers(0, 3))
        anchors = anchors_around(rng, radii, kind)
        mu, h2 = table_row(anchors, radii)
        X = rigid_copies(rng, anchors, F)
        refs = rng.normal(size=(F, K)) if rng.random() < 0.7 else None
        ext = extend_stack(X, mu, h2, refs)
        assert ext.kind == kind
        for f in range(F):
            one = extend_stack(X[f : f + 1], mu, h2, None if refs is None else refs[f : f + 1])
            for name in self.FIELDS:
                assert getattr(ext, name)[f].tobytes() == getattr(one, name)[0].tobytes(), name
            if kind == _TANGENT:
                # a fresh contiguous point, as the node-by-node search had
                s = side(ext.normals[f], X[f, -1], ext.points[f, 0])
                assert ext.placed[f].tolist() == [s == 0, s == 1]
            if kind != _EMPTY:
                for z in ext.points[f]:
                    assert np.abs(np.linalg.norm(X[f] - z, axis=1) - radii).max() <= 1e-9

    def test_degenerate_row_raises(self):
        good = [[0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(DegenerateSpan):
            extend_stack([good, [[1.0, 1.0], [1.0, 1.0]]], [0.5], 0.75)


def in_plane_level(rng, K, scale):
    """Anchors (K, K) and the radii of a random point of their hyperplane: tangent.

    The anchors are drawn like the generator's windows (volume at least
    1e-3 in the unit box) and scaled by ``scale``.
    """
    anchors = random_anchors(rng, K, min_volume=1e-3) * scale
    normal = np.linalg.svd(anchors[:-1] - anchors[-1])[2][-1]
    z = rng.random(K) * scale
    z += ((anchors[-1] - z) @ normal) * normal
    return anchors, np.linalg.norm(anchors - z, axis=1)


class TestLevelTable:
    """The h**2 band: tangent within EPS_TANGENT times the largest r**2, at any scale."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_in_plane_vertex_is_tangent(self, K, scale):
        rng = np.random.default_rng(K)
        for _ in range(200):
            anchors, radii = in_plane_level(rng, K, scale)
            assert table_row(anchors, radii)[1] == 0.0
            ext = extend_one(anchors, radii)
            assert ext.kind == _TANGENT and ext.placed.sum() == 1
            residual = np.abs(np.linalg.norm(anchors - ext.points[0, 0], axis=1) - radii)
            assert residual.max() <= 1e-9 * scale

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_band_width(self, K, scale):
        """Adding t to every r**2 adds t to h**2: a tenth of the band is tangent, ten empty or a pair."""
        rng = np.random.default_rng(10 + K)
        for _ in range(50):
            anchors, radii = in_plane_level(rng, K, scale)
            band = EPS_TANGENT * float((radii**2).max())
            for t, kind in ((-10.0, _EMPTY), (-0.1, _TANGENT), (0.1, _TANGENT), (10.0, _PAIR)):
                assert extend_one(anchors, np.sqrt(radii**2 + t * band)).kind == kind

    def test_k1_height_is_the_radius(self):
        mu, h2 = level_table([[[0.0, 2.0], [2.0, 0.0]]])
        assert mu.shape == (1, 0) and h2.tolist() == [2.0]
