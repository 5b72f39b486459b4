"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines
and timings.  Criteria 2-4 share one batch of 100 seeded random instances
(K in {2, 3}, n in 6..12, pruning probability in {0, 0.2, 0.5}).
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from corpus import build_corpus
from dgbp.errors import AmbiguousSpectrum
from dgbp.geometry import (
    Hyperplane,
    cayley_menger_volume,
    extend_positions,
    ExtensionKind,
    hyperplane_through,
    reflect,
)
from dgbp.instance import counterexample, random_instance
from dgbp.solver import brute_force, recompute_code, recompute_codes, solve
from dgbp.symmetry import (
    branch_levels,
    distance_spectrum,
    suffix_flip,
    verify_orbit,
)
from flips import combine_flips, span_flips, xor_bits

BATCH_PARAMS = [
    (K, n, p)
    for K in (2, 3)
    for n in range(6, 13)
    for p in (0.0, 0.2, 0.5)
]


def seeded_batch(count=100, seed_base=7000):
    return [BATCH_PARAMS[i % len(BATCH_PARAMS)] + (seed_base + i,) for i in range(count)]


@pytest.fixture(scope="module")
def batch_results():
    out = []
    started = time.perf_counter()
    for K, n, p, seed in seeded_batch():
        inst, _ = random_instance(K, n, p, seed)
        out.append((inst, solve(inst)))
    elapsed = time.perf_counter() - started
    print(f"\n[batch] solved 100 random instances in {elapsed:.2f}s")
    return out


def test_criterion_1_counterexample_family():
    for K in (1, 2, 3, 4):
        started = time.perf_counter()
        inst = counterexample(K)
        result = solve(inst)
        elapsed = time.perf_counter() - started
        assert result.solution_count == 6, f"K={K}: got {result.solution_count}"
        for emb in result.solutions:
            for (u, v), d in inst.edges.items():
                res = abs(float(np.linalg.norm(emb[u - 1] - emb[v - 1])) - d)
                assert res <= 1e-9 * d, f"K={K}: edge {{{u},{v}}} residual {res}"
        report = verify_orbit(result)
        assert not report.power_of_two
        assert report.degenerate
        print(f"[criterion 1] K={K}: |X|=6, power_of_two=false ({elapsed * 1e3:.0f} ms)")
    print("ACCEPTANCE 1 PASS: counterexample family yields |X| = 6 for K = 1..4")


def test_criterion_2_power_of_two_law(batch_results):
    started = time.perf_counter()
    for inst, result in batch_results:
        assert result.solution_count >= 1, "feasible by construction"
        levels = branch_levels(result)
        assert result.solution_count == 2 ** len(levels), (
            f"K={inst.dimension} n={inst.n}: |X|={result.solution_count}, "
            f"|I|={len(levels)}")
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 2 PASS: |X| = 2^|I| on 100 seeded instances "
          f"(checks {elapsed:.2f}s)")


def test_criterion_3_orbit_theorem(batch_results):
    for inst, result in batch_results:
        levels = branch_levels(result)
        n = inst.n
        group = span_flips([suffix_flip(i, n) for i in sorted(levels)], n)
        codes = set(result.branch_codes)
        base = min(codes)
        assert {xor_bits(base, g) for g in group} == codes, f"n={n}"
        report = verify_orbit(result)
        assert report.orbit_verified
    print("ACCEPTANCE 3 PASS: code set equals one suffix-flip orbit on all 100 instances")


def test_criterion_4_partial_reflection_theorem():
    checked = 0
    for K, n, p, seed in seeded_batch(20):
        inst, _ = random_instance(K, n, p, seed)
        result = solve(inst)
        report = verify_orbit(result)
        assert report.reflection_checks, f"seed {seed}: no (solution, level) pairs"
        for chk in report.reflection_checks:
            assert chk.residual <= 1e-9, (
                f"seed {seed}: reflection residual {chk.residual}")
            assert chk.code_matches, f"seed {seed}: code prediction failed"
            checked += 1
    print(f"ACCEPTANCE 4 PASS: {checked} tail reflections land on solutions "
          f"with XOR-predicted codes")


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    corpus = build_corpus()
    for name, inst in sorted(corpus.items()):
        assert inst.n - inst.dimension <= 12
        result = solve(inst)
        oracle = brute_force(inst)
        assert len(oracle) == result.solution_count, name
        for mine, theirs in zip(result.solutions, oracle):
            assert float(np.max(np.abs(mine - theirs))) <= 1e-9, name
        assert {recompute_code(inst, emb) for emb in oracle} == set(
            result.branch_codes), name
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 5 PASS: solver matches exhaustive oracle on "
          f"{len(corpus)} fixtures ({elapsed:.2f}s)")


def codes_by_planes(inst, embedding):
    """Side bits of one embedding, one hyperplane_through per level, each
    oriented by the normal of the level before."""
    K = inst.dimension
    bits, normal = [0] * K, None
    for level in range(K + 1, inst.n + 1):
        plane = hyperplane_through(embedding[level - 1 - K : level - 1], reference=normal)
        bits.append(plane.side(embedding[level - 1]))
        normal = plane.normal
    return tuple(bits)


def test_stacked_code_recomputation(batch_results):
    # recompute_codes (one anchor-plane call per chunk of embeddings, then a
    # sign scan over the levels) gives the per-embedding codes, on the
    # oracle's embeddings of the counterexample family and on the solutions
    # of the seeded batch
    rows = 0
    for K in (1, 2, 3, 4):
        inst = counterexample(K)
        stack = np.asarray(brute_force(inst))
        want = [codes_by_planes(inst, emb) for emb in stack]
        assert recompute_codes(inst, stack) == want
        assert [recompute_code(inst, emb) for emb in stack] == want  # batch of one
        rows += len(stack)
    for inst, result in batch_results:
        stack = np.asarray(result.solutions)
        assert recompute_codes(inst, stack) == [codes_by_planes(inst, emb) for emb in stack]
        rows += len(stack)
    print(f"stacked code recomputation matches the per-embedding planes on {rows} embeddings")


def test_criterion_6_distance_spectra():
    cases = [
        ("chain K=2 q=1", (2, 5, 0.0, 4242), 1, 4, 2),
        ("chain K=2 q=2", (2, 5, 0.0, 4242), 1, 5, 4),
        ("chain K=3 q=1", (3, 6, 0.0, 4343), 1, 5, 2),
        ("chain K=3 q=2", (3, 6, 0.0, 4343), 1, 6, 4),
    ]
    for label, (K, n, p, seed), u, v, expected in cases:
        inst, _ = random_instance(K, n, p, seed)
        result = solve(inst)
        try:
            spectrum = distance_spectrum(result, u, v)
        except AmbiguousSpectrum:
            print(f"[criterion 6] {label}: VOID (cluster gap below 10x tolerance)")
            continue
        assert len(spectrum) == expected, f"{label}: got {len(spectrum)} clusters"
    print("ACCEPTANCE 6 PASS: 2 clusters at q=1 and 4 clusters at q=2 on chains")


def test_criterion_7_geometry_unit_suite():
    sq = [[0, 9, 25], [9, 0, 16], [25, 16, 0]]
    assert abs(cayley_menger_volume(sq, 2) - 6.0) <= 1e-12

    rng = np.random.default_rng(777)
    for _ in range(500):
        K = int(rng.integers(1, 4))
        vec = rng.normal(size=K)
        while np.linalg.norm(vec) < 1e-3:
            vec = rng.normal(size=K)
        normal = vec / np.linalg.norm(vec)
        plane = Hyperplane(normal=normal, offset=float(rng.normal()),
                           pivot_index=int(np.argmax(np.abs(normal) > 1e-12)))
        p, q = rng.normal(size=K), rng.normal(size=K)
        assert np.max(np.abs(reflect(plane, reflect(plane, p)) - p)) <= 1e-12
        d0 = float(np.linalg.norm(p - q))
        d1 = float(np.linalg.norm(reflect(plane, p) - reflect(plane, q)))
        assert abs(d1 - d0) <= 1e-12 + 1e-12 * d0

    pairs = 0
    for trial in range(10_000):
        K = 2 if trial % 2 == 0 else 3
        while True:
            anchors = rng.random((K, K))
            M = anchors[1:] - anchors[0]
            vol = math.sqrt(max(float(np.linalg.det(M @ M.T)), 0.0)) / math.factorial(K - 1)
            if vol >= 1e-6:
                break
        target = rng.random(K)
        radii = np.linalg.norm(anchors - target, axis=1)
        if np.any(radii <= 1e-9):
            continue
        ext = extend_positions(anchors, radii)
        if ext.kind is not ExtensionKind.PAIR:
            continue
        z1, z2 = ext.points
        plane = hyperplane_through(anchors)
        assert np.max(np.abs(reflect(plane, z1) - z2)) <= 1e-9
        pairs += 1
    assert pairs >= 9_900
    print(f"ACCEPTANCE 7 PASS: geometry invariants hold "
          f"({pairs} random pair extensions checked)")


def test_criterion_8_group_property_suite():
    for n in range(1, 13):
        seen = set()
        total = 0
        for size in range(n + 1):
            for subset in combinations(range(1, n + 1), size):
                seen.add(combine_flips(subset, n))
                total += 1
        assert total == 2**n and len(seen) == 2**n, f"n={n}"

    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(1, 17))
        k = int(rng.integers(0, min(n, 12) + 1))
        levels = rng.choice(np.arange(1, n + 1), size=k, replace=False)
        gens = [suffix_flip(int(i), n) for i in sorted(levels)]
        assert len(span_flips(gens, n)) == 2**k
    print("ACCEPTANCE 8 PASS: flip map injective for n <= 12; "
          "spans have order 2^|L| on 100 random generator sets")
