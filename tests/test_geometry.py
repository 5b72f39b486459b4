import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dgbp.errors import DegenerateSpan, DimensionMismatch, NegativeDeterminant
from dgbp.geometry import (
    EPS_NORMAL,
    ExtensionKind,
    Hyperplane,
    cayley_menger_volume,
    extend_positions,
    hyperplane_through,
    reflect,
)


def sq_dist_matrix(points):
    P = np.asarray(points, dtype=float)
    diff = P[:, None, :] - P[None, :, :]
    return np.sum(diff**2, axis=2)


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
    def test_x_axis_canonical(self):
        h = hyperplane_through([[0, 0], [1, 0]])
        assert np.allclose(h.normal, [0, 1], atol=1e-12)
        assert h.offset == pytest.approx(0.0, abs=1e-12)
        assert h.pivot_index == 1

    def test_reference_flips_normal(self):
        h = hyperplane_through([[0, 0], [1, 0]], reference=[0, -1])
        assert np.allclose(h.normal, [0, -1], atol=1e-12)
        assert h.offset == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_plane_k3(self):
        h = hyperplane_through([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert np.allclose(h.normal, np.ones(3) / math.sqrt(3), atol=1e-12)
        assert h.offset == pytest.approx(1 / math.sqrt(3), abs=1e-12)

    def test_single_point_k1(self):
        h = hyperplane_through([[2.5]])
        assert h.normal[0] == 1.0
        assert h.offset == pytest.approx(2.5)

    def test_degenerate_span(self):
        with pytest.raises(DegenerateSpan):
            hyperplane_through([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(DegenerateSpan):
            hyperplane_through([[1, 1], [1, 1]])

    def test_contains_points_and_unit_normal(self):
        rng = np.random.default_rng(11)
        for K in (2, 3, 4):
            for _ in range(40):
                pts = random_anchors(rng, K)
                h = hyperplane_through(pts)
                assert abs(np.linalg.norm(h.normal) - 1.0) <= 1e-12
                assert np.max(np.abs(pts @ h.normal - h.offset)) <= 1e-10


class TestReflect:
    def test_mirror_across_x_axis(self):
        h = hyperplane_through([[0, 0], [1, 0]])
        assert np.allclose(reflect(h, [1, 1]), [1, -1], atol=1e-12)

    def test_point_on_plane_is_fixed(self):
        h = Hyperplane(normal=np.array([1.0, 0.0]), offset=2.0, pivot_index=0)
        assert np.allclose(reflect(h, [2, 7]), [2, 7], atol=1e-12)

    def test_offset_plane_mirror(self):
        h = Hyperplane(normal=np.array([1.0, 0.0]), offset=2.0, pivot_index=0)
        assert np.allclose(reflect(h, [0, 0]), [4, 0], atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, derandomize=True)
    def test_involution_and_isometry(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        vec = rng.normal(size=K)
        while np.linalg.norm(vec) < 1e-3:
            vec = rng.normal(size=K)
        normal = vec / np.linalg.norm(vec)
        h = Hyperplane(normal=normal, offset=float(rng.normal()),
                       pivot_index=int(np.argmax(np.abs(normal) > 1e-12)))
        p, q = rng.normal(size=K), rng.normal(size=K)
        assert np.max(np.abs(reflect(h, reflect(h, p)) - p)) <= 1e-12
        d0 = np.linalg.norm(p - q)
        d1 = np.linalg.norm(reflect(h, p) - reflect(h, q))
        assert abs(d1 - d0) <= 1e-12 + 1e-12 * d0


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
    def test_unit_circle_pair(self):
        ext = extend_positions([[0, 0], [1, 0]], [1, 1])
        assert ext.kind is ExtensionKind.PAIR
        got = sorted(map(tuple, ext.points))
        want = [(0.5, -math.sqrt(3) / 2), (0.5, math.sqrt(3) / 2)]
        assert np.allclose(got, want, atol=1e-12)

    def test_disjoint_circles_empty(self):
        ext = extend_positions([[0, 0], [1, 0]], [1, 3])
        assert ext.kind is ExtensionKind.EMPTY
        assert ext.discriminant < 0
        assert ext.points == ()

    def test_tangent_circles(self):
        ext = extend_positions([[0, 0], [2, 0]], [1, 1])
        assert ext.kind is ExtensionKind.TANGENT
        assert np.allclose(ext.points[0], [1, 0], atol=1e-12)

    def test_three_spheres_match_numeric_oracle(self):
        anchors = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        radii = [1, 1, 1]
        # frozen values, confirmed by the multi-start oracle below
        frozen = [(0.5, 0.5, -0.7071067811865476), (0.5, 0.5, 0.7071067811865476)]
        oracle = numeric_sphere_roots(anchors, radii)
        assert len(oracle) == 2
        assert np.allclose(oracle, frozen, atol=1e-9)
        ext = extend_positions(anchors, radii)
        assert ext.kind is ExtensionKind.PAIR
        assert np.allclose(sorted(map(tuple, ext.points)), frozen, atol=1e-9)

    def test_k1_two_points_on_line(self):
        ext = extend_positions([[3.0]], [2.0])
        assert ext.kind is ExtensionKind.PAIR
        assert sorted(p[0] for p in ext.points) == pytest.approx([1.0, 5.0])

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            extend_positions([[0, 0], [1, 0]], [1, 0])

    def test_degenerate_anchors(self):
        with pytest.raises(DegenerateSpan):
            extend_positions([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [1, 1, 1])

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_pair_points_are_reflections_and_on_spheres(self, K):
        rng = np.random.default_rng(31)
        for _ in range(200):
            anchors = random_anchors(rng, K)
            target = rng.random(K)
            radii = np.linalg.norm(anchors - target, axis=1)
            if np.any(radii <= 1e-6):
                continue
            ext = extend_positions(anchors, radii)
            assert ext.kind is ExtensionKind.PAIR
            plane = hyperplane_through(anchors)
            z1, z2 = ext.points
            assert np.max(np.abs(reflect(plane, z1) - z2)) <= 1e-9
            for z in ext.points:
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
        ext = extend_positions(anchors, radii, reference)
        assume(ext.kind is ExtensionKind.PAIR)
        plane = ext.plane
        fitted = hyperplane_through(anchors, reference)
        assert np.array_equal(plane.normal, fitted.normal)
        assert (plane.offset, plane.pivot_index) == (fitted.offset, fitted.pivot_index)
        assert [plane.side(z) for z in ext.points] == [0, 1]
        along = float(plane.normal @ reference)
        if abs(along) > EPS_NORMAL:
            assert along > 0.0
        # the SVD null vector of the anchor differences, as an outside reference
        null = np.array([1.0]) if K == 1 else np.linalg.svd(anchors[1:] - anchors[0])[2][-1]
        assert min(np.linalg.norm(plane.normal - null),
                   np.linalg.norm(plane.normal + null)) <= 1e-12
