"""The numerical decisions do not depend on the unit of length or on the frame.

Scaling every distance and coordinate of an instance by s (with the pruning
band's absolute ``atol`` scaled along), or rotating or translating its
initial embedding, must leave validation, the branch codes, the per-level
child histogram and the solution count as they are.  Degeneracy is one
flatness rule, so a near-flat window gets one verdict at every scale.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgbp.geometry import cayley_menger_volume
from dgbp.instance import Instance, ViolationCode, random_instance, validate
from dgbp.solver import SolverOptions, brute_force, recompute_codes, solve
from dgbp.symmetry import verify_orbit

SCALES = (1e-6, 1e-3, 1e3, 1e6)

#: Every generated instance is n = 12, one of these dimensions and pruning
#: probabilities, and a hypothesis-drawn seed.
grid = pytest.mark.parametrize("K,p", [(K, p) for K in (1, 2, 3, 4) for p in (0.0, 0.2)])
seeds = st.integers(0, 10_000)

def scaled(inst, s):
    """``inst`` with every distance and initial coordinate multiplied by ``s``."""
    return Instance(inst.dimension, inst.n, {e: d * s for e, d in inst.edges.items()},
                    tuple(tuple(c * s for c in row) for row in inst.initial_embedding))


def moved(inst, rotation=None, shift=0.0):
    """``inst`` with its initial embedding rotated, then translated by ``shift``."""
    pts = inst.initial_points()
    if rotation is not None:
        pts = pts @ rotation.T
    return Instance(inst.dimension, inst.n, inst.edges, tuple(map(tuple, pts + shift)))


def random_rotation(K, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(K, K)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    return q


def complete(points, K):
    """Instance on the rows of ``points`` with every pair an edge."""
    n = len(points)
    edges = {(u, v): float(np.linalg.norm(points[v - 1] - points[u - 1]))
             for u in range(1, n + 1) for v in range(u + 1, n + 1)}
    return Instance(K, n, edges, tuple(map(tuple, points[:K])))


def signature(inst, s=1.0):
    result = solve(inst, SolverOptions(atol=1e-9 * s))
    return result.solution_count, result.branch_codes, result.stats.child_hist


@grid
@pytest.mark.parametrize("s", SCALES)
@settings(max_examples=5, derandomize=True, deadline=None)
@given(seed=seeds)
def test_scaling_keeps_validation_and_search(K, p, s, seed):
    inst = random_instance(K, 12, p, seed)[0]
    big = scaled(inst, s)
    assert validate(big).ok
    assert signature(big, s) == signature(inst)


@grid
@settings(max_examples=10, derandomize=True, deadline=None)
@given(seed=seeds, s=st.sampled_from((1.0,) + SCALES), turn=seeds)
def test_rotation_keeps_validation_and_search(K, p, seed, s, turn):
    inst = random_instance(K, 12, p, seed)[0]
    turned = scaled(moved(inst, rotation=random_rotation(K, turn)), s)
    assert validate(turned).ok
    assert signature(turned, s) == signature(inst)


@pytest.mark.parametrize("shift", [1e3, 1e4, 1e5])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_translation_keeps_the_count(K, shift):
    """Placement reads only distances, so a far-off frame keeps every branch code."""
    for seed in range(12):
        inst = random_instance(K, 12, 0.2, seed)[0]
        far = moved(inst, shift=shift)
        assert validate(far).ok
        result = solve(far)
        assert result.branch_codes == solve(inst).branch_codes
        assert recompute_codes(far, brute_force(far)) == result.branch_codes
        report = verify_orbit(result)
        assert report.orbit_verified
        assert all(c.code_matches and c.residual <= 1e-9 for c in report.reflection_checks)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(K=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), log_offset=st.floats(-9, -4))
def test_near_flat_window_verdict_is_scale_free(K, seed, log_offset):
    """The last window point sits 10**log_offset off the hull of the others."""
    rng = np.random.default_rng(seed)
    base = rng.random((K - 1, K))
    span = np.linalg.qr((base[1:] - base[0]).T)[0] if K > 2 else np.zeros((K, 0))
    direction = rng.normal(size=K)
    direction -= span @ (span.T @ direction)
    direction /= np.linalg.norm(direction)
    near = rng.dirichlet(np.ones(K - 1)) @ base + 10.0**log_offset * direction
    inst = complete(np.vstack([base, near, rng.random(K)]), K)
    verdicts = {validate(scaled(inst, s)).ok for s in (1.0,) + SCALES}
    assert len(verdicts) == 1


def test_scaled_triangle_keeps_its_area():
    sq = np.array([[0.0, 9.0, 16.0], [9.0, 0.0, 25.0], [16.0, 25.0, 0.0]]) * 1e-12
    assert cayley_menger_volume(sq, 2) == pytest.approx(6e-12, rel=1e-9)


@pytest.mark.parametrize("s", [1.0, 1e6])
def test_tiny_window_under_long_radii_is_degenerate(s):
    """A 1e-9 segment cannot place a vertex 0.5 away, at any scale."""
    inst = complete(np.array([[0.0, 0.0], [1e-9, 0.0], [5e-10, 0.5]]) * s, 2)
    report = validate(inst)
    assert {v.code for v in report.violations} == {ViolationCode.DEGENERATE_SIMPLEX}
    assert report.violations[0].vertex == 3


def test_no_residual_alarm_at_large_scale(caplog):
    inst = scaled(random_instance(1, 12, 0.2, 0)[0], 1e9)
    with caplog.at_level(logging.WARNING, logger="dgbp.solver"):
        solve(inst)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
