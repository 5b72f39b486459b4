from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgbp.errors import AmbiguousSpectrum, NoSiblingBranch, SubtreeNotFull
from dgbp.instance import Instance, counterexample, edge_violations, random_instance
from dgbp.solver import SolveResult, SolveStats, parse_result, serialize_result, solve
from dgbp.symmetry import (
    SPECTRUM_TOL,
    ReflectionCheck,
    branch_levels,
    branches_both_ways,
    distance_spectrum,
    partial_reflection,
    serialize_report,
    suffix_flip,
    verify_orbit,
)
from flips import GroupTooLarge, combine_flips, span_flips, xor_bits


#: K=1..4, n in {8, 14, 20}, p in {0, 0.1, 0.3}, seeds 0-3, less the full
#: trees of K <= 3 at n = 20 (131,072 to 524,288 solutions).
GRID = [(K, n, p, seed) for K in range(1, 5) for n in (8, 14, 20) for p in (0.0, 0.1, 0.3)
        for seed in range(4) if not (K <= 3 and n == 20 and p == 0.0)]


def summarise_checks(checks) -> tuple:
    """The ``(level, checks, missing, worst, first)`` rows of a list of ReflectionChecks."""
    rows: dict = {}
    for chk in checks:
        row = rows.setdefault(chk.level, [chk.level, 0, 0, chk.residual, None])
        row[1] += 1
        row[3] = max(row[3], chk.residual)
        if not chk.code_matches:
            row[2] += 1
            if row[4] is None:
                row[4] = chk.solution_index
    return tuple(tuple(rows[level]) for level in sorted(rows))


class TestFlips:
    def test_last_level(self):
        assert suffix_flip(5, 5) == (0, 0, 0, 0, 1)

    def test_first_level_is_all_ones(self):
        assert suffix_flip(1, 4) == (1, 1, 1, 1)

    def test_self_inverse(self):
        g = suffix_flip(3, 6)
        assert xor_bits(g, g) == (0,) * 6

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            suffix_flip(0, 5)
        with pytest.raises(IndexError):
            suffix_flip(6, 5)

    def test_combine_empty_is_identity(self):
        assert combine_flips([], 6) == (0,) * 6

    def test_combine_two_levels(self):
        assert combine_flips({3, 5}, 6) == (0, 0, 1, 1, 0, 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_injective_over_all_subsets(self, n):
        seen = set()
        for size in range(n + 1):
            for subset in combinations(range(1, n + 1), size):
                seen.add(combine_flips(subset, n))
        assert len(seen) == 2**n

    def test_span_size_is_power_of_two(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 16))
            k = int(rng.integers(0, min(n, 12) + 1))
            levels = sorted(rng.choice(np.arange(1, n + 1), size=k, replace=False))
            gens = [suffix_flip(int(i), n) for i in levels]
            assert len(span_flips(gens, n)) == 2**k

    def test_group_laws_exhaustive_n8(self):
        # vectorised over all 2^8 masks: commutativity, associativity,
        # identity, self-inverse
        masks = np.arange(256, dtype=np.uint16)
        a = masks[:, None]
        b = masks[None, :]
        assert np.array_equal(a ^ b, b ^ a)
        c = np.uint16(0xB5)
        assert np.array_equal((a ^ b) ^ c, a ^ (b ^ c))
        assert np.array_equal(masks ^ 0, masks)
        assert not np.any(masks ^ masks)

    @given(st.integers(9, 64), st.integers(0, 10_000))
    @settings(max_examples=40, derandomize=True)
    def test_group_laws_random_large_n(self, n, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (tuple(rng.integers(0, 2, size=n).tolist()) for _ in range(3))
        e = (0,) * n
        assert xor_bits(a, b) == xor_bits(b, a)
        assert xor_bits(xor_bits(a, b), c) == xor_bits(a, xor_bits(b, c))
        assert xor_bits(a, e) == a
        assert xor_bits(a, a) == e


class TestBranchLevels:
    def test_chain_every_level_branches(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        assert branch_levels(result) == frozenset({3, 4, 5})

    def test_counterexample_readings_disagree(self):
        result = solve(counterexample(2))
        levels = branch_levels(result)
        assert levels == frozenset({3, 4})
        # some solutions do branch both ways at level 5, so the
        # per-solution predicate disagrees with the all-prefixes reading
        assert any(branches_both_ways(result, i, 5)
                   for i in range(result.solution_count))
        assert result.stats.uniform_level_violations == (4,)

    def test_empty_codes(self):
        assert branch_levels([]) == frozenset()

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_prefix_reference(self, data):
        # the sorted-matrix reading against the definition, on cosets of
        # random flip subgroups with a few codes toggled, shuffled and
        # with repeats
        n = data.draw(st.integers(1, 7))
        bits = st.tuples(*[st.integers(0, 1)] * n)
        levels = data.draw(st.sets(st.integers(1, n)))
        coset = {xor_bits(data.draw(bits), g)
                 for g in span_flips([suffix_flip(i, n) for i in levels], n)}
        codes = sorted(coset ^ data.draw(st.sets(bits, max_size=3))) or sorted(coset)
        codes = data.draw(st.permutations(codes + codes[: data.draw(st.integers(0, 2))]))
        want = frozenset(
            i for i in range(1, n + 1)
            if all({c[i - 1] for c in codes if c[: i - 1] == p[: i - 1]} == {0, 1}
                   for p in codes))
        assert branch_levels(codes) == want
        assert branch_levels(np.array(codes, dtype=np.int8)) == want

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_count_matches_group_order(self, seed):
        inst, _ = random_instance(2, 9, 0.4, seed)
        result = solve(inst)
        assert result.solution_count == 2 ** len(branch_levels(result))


class TestVerifyOrbit:
    def test_chain(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        report = verify_orbit(result)
        assert report.orbit_verified
        assert report.group_order == 8 == report.solution_count
        assert report.power_of_two and not report.degenerate

    def test_counterexample_flags(self):
        result = solve(counterexample(2))
        report = verify_orbit(result)
        assert not report.power_of_two
        assert not report.orbit_verified
        assert report.degenerate
        assert report.uniform_level_violations == (4,)

    def test_random_instance_theorem(self):
        inst, _ = random_instance(2, 9, 0.4, 11)
        result = solve(inst)
        report = verify_orbit(result)
        assert report.orbit_verified
        assert report.solution_count == report.group_order
        assert all(c.residual <= 1e-9 and c.code_matches
                   for c in report.reflection_checks)

    def test_counterexample_reflections_with_tree(self):
        # two tails per K reflect onto a code no solution has: those checks
        # carry no partner, the other ten land on their partner exactly
        for K in range(1, 5):
            result = solve(counterexample(K))
            checks = verify_orbit(result).reflection_checks
            assert len(checks) == 12
            absent = [c for c in checks if not c.code_matches]
            assert len(absent) == 2
            assert all(c.matched_index == -1 and c.residual == float("inf")
                       for c in absent)
            assert all(c.residual <= 1e-9 and c.matched_index >= 0
                       for c in checks if c.code_matches)

    def test_checks_match_per_solution_reflections(self, corpus):
        # the per-(solution, level) loop over partial_reflection is the
        # reference for the stacked checks
        for name in ("chain_k3_n6", "random_04", "random_09", "counterexample_k3"):
            result = solve(corpus[name])
            n = len(result.branch_codes[0])
            index_of = {code: i for i, code in enumerate(result.branch_codes)}
            want = []
            for idx, code in enumerate(result.branch_codes):
                for lvl in sorted(branch_levels(result)):
                    mirrored = partial_reflection(result, idx, lvl)
                    partner = index_of.get(xor_bits(code, suffix_flip(lvl, n)), -1)
                    residual = float("inf") if partner < 0 else float(np.max(
                        np.linalg.norm(result.solutions[partner] - mirrored, axis=1)))
                    want.append(ReflectionCheck(idx, lvl, residual, partner >= 0, partner))
            assert list(verify_orbit(result).reflection_checks) == want, name

    def test_checks_are_immutable_records(self, chain_k2_n5):
        check = verify_orbit(solve(chain_k2_n5)).reflection_checks[0]
        assert check._fields == ("solution_index", "level", "residual", "code_matches",
                                 "matched_index")
        assert list(map(type, check)) == [int, int, float, bool, int]
        with pytest.raises(AttributeError):
            check.residual = 0.0

    def test_file_result_has_no_reflection_checks(self, chain_k2_n5):
        result = parse_result(serialize_result(solve(chain_k2_n5)))
        report = verify_orbit(result)
        assert report.orbit_verified and report.reflection_checks == ()
        assert report.reflection_levels == ()
        assert serialize_report(report).endswith("\nreflection_checks:\n")

    @pytest.mark.parametrize("K, n, p, seed", GRID)
    def test_level_summary_aggregates_checks(self, K, n, p, seed):
        report = verify_orbit(solve(random_instance(K, n, p, seed)[0]))
        assert report.reflection_levels == summarise_checks(report.reflection_checks)
        assert [row[0] for row in report.reflection_levels] == sorted(report.branch_levels)

    def test_level_summary_of_counterexamples(self):
        # two checks per K have no partner: the summary counts both, with an
        # inf worst residual and a first solution
        for K in range(1, 5):
            report = verify_orbit(solve(counterexample(K)))
            assert report.reflection_levels == summarise_checks(report.reflection_checks)
            assert sum(row[2] for row in report.reflection_levels) == 2
            assert any(row[3] == float("inf") and row[4] is not None
                       for row in report.reflection_levels)

    @pytest.mark.parametrize("name, block", [
        ("chain_k2_n5", [["3", "8", "0", "-"], ["4", "8", "0", "-"], ["5", "8", "0", "-"]]),
        ("counterexample_k2", [["3", "6", "0", "-"], ["4", "6", "2", "inf", "2"]]),
    ])
    def test_report_block_one_line_per_level(self, corpus, name, block):
        # level, checks, missing and first are pinned; a finite worst
        # residual is a rounding error, written with 17 digits
        report = verify_orbit(solve(corpus[name]))
        head, lines = serialize_report(report).split("reflection_checks:\n")
        assert head.endswith("\n") and lines.endswith("\n")
        rows = [line.split(" ") for line in lines.splitlines()]
        assert [row[:3] + row[4:] if row[3] != "inf" else row for row in rows] == block
        for row, (_, _, _, worst, _) in zip(rows, report.reflection_levels):
            assert row[3] == "%.17g" % worst
            assert worst == float("inf") or worst <= 1e-9

    @pytest.mark.parametrize("codes, verified", [
        ([(0, 0), (1, 0)], False),  # right size for |I| = 1, not a coset
        ([(0, 0), (1, 1)], True),
    ])
    def test_orbit_verdict_examples(self, codes, verified):
        report = verify_orbit(_bare_result(codes))
        assert report.power_of_two
        assert report.orbit_verified is verified

    @given(st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_orbit_verdict_matches_span_reference(self, data):
        n = data.draw(st.integers(1, 10))
        bits = st.tuples(*[st.integers(0, 1)] * n)
        # a coset of a random flip subgroup, then a few codes toggled, so
        # both verdicts come up often
        levels = data.draw(st.sets(st.integers(1, n)))
        coset = {xor_bits(data.draw(bits), g)
                 for g in span_flips([suffix_flip(i, n) for i in levels], n)}
        codes = coset ^ data.draw(st.sets(bits, max_size=2))
        if not codes:
            codes = coset
        report = verify_orbit(_bare_result(sorted(codes)))
        base = min(codes)
        flips = [suffix_flip(i, n) for i in sorted(report.branch_levels)]
        reference = {xor_bits(base, g) for g in span_flips(flips, n)}
        assert report.orbit_verified == (reference == codes)

    def test_group_materialisation_capped(self):
        gens = [suffix_flip(i, 30) for i in range(1, 26)]
        with pytest.raises(GroupTooLarge):
            span_flips(gens, 30)

    def test_orbit_closure(self, corpus):
        for name in ("chain_k2_n5", "random_04", "random_09"):
            result = solve(corpus[name])
            report = verify_orbit(result)
            codes = set(report.codes)
            flips = [suffix_flip(i, report.n) for i in sorted(report.branch_levels)]
            group = span_flips(flips, report.n)
            for code in codes:
                for g in group:
                    assert xor_bits(code, g) in codes

    def test_no_solutions_rejected(self, corpus):
        inst = corpus["random_03"]
        pruning = [(u, v) for (u, v) in inst.edges if v - u > inst.dimension]
        edges = dict(inst.edges)
        edges[pruning[0]] += 1.0
        result = solve(Instance(inst.dimension, inst.n, edges, inst.initial_embedding))
        with pytest.raises(ValueError):
            verify_orbit(result)

    def test_report_serialization_mentions_verdicts(self, chain_k2_n5):
        report = verify_orbit(solve(chain_k2_n5))
        text = serialize_report(report)
        assert "orbit_verified: true" in text
        assert "power_of_two: true" in text
        assert "branch_levels: 3 4 5" in text
        assert text.count("\n00") >= 7  # one code line per solution


def _bare_result(codes):
    """A solve result holding only codes (no instance)."""
    return SolveResult(None, np.zeros((len(codes), len(codes[0]), 1)), list(codes),
                       SolveStats())


class TestPartialReflection:
    def test_full_tail_flip_on_chain(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        idx = result.branch_codes.index((0, 0, 0, 0, 0))
        mirrored = partial_reflection(result, idx, 3)
        dists = [float(np.max(np.abs(mirrored - s))) for s in result.solutions]
        j = int(np.argmin(dists))
        assert dists[j] <= 1e-9
        assert result.branch_codes[j] == (0, 0, 1, 1, 1)

    def test_involution(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        y = result.solutions[0]
        once = partial_reflection(result, 0, 4)
        # reflect the reflected tail back across the same anchors (they are
        # fixed by the reflection, so the plane is unchanged)
        K = result.instance.dimension
        from dgbp.geometry import _anchor_planes, reflect_stack

        normals = _anchor_planes(once[None, 4 - 1 - K : 4 - 1], None)
        twice = once.copy()
        twice[3:] = reflect_stack(normals, once[None, 4 - 2], once[None, 3:])[0]
        assert np.max(np.abs(twice - y)) <= 1e-9

    def test_valid_on_random_instances(self):
        for seed in (21, 22):
            inst, _ = random_instance(2, 8, 0.3, seed)
            result = solve(inst)
            levels = branch_levels(result)
            for idx in range(result.solution_count):
                for lvl in sorted(levels):
                    mirrored = partial_reflection(result, idx, lvl)
                    assert not edge_violations(inst, mirrored, atol=1e-9, rtol=1e-9)
                    want = xor_bits(result.branch_codes[idx], suffix_flip(lvl, inst.n))
                    dists = [float(np.max(np.abs(mirrored - s))) for s in result.solutions]
                    j = int(np.argmin(dists))
                    assert dists[j] <= 1e-9
                    assert result.branch_codes[j] == want

    def test_requires_branching(self):
        result = solve(counterexample(2))
        blocked = [i for i in range(6) if not branches_both_ways(result, i, 5)]
        assert len(blocked) == 2
        with pytest.raises(NoSiblingBranch):
            partial_reflection(result, blocked[0], 5)

    def test_vertex_range_checked(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        with pytest.raises(ValueError):
            partial_reflection(result, 0, 2)  # seeded vertex, no branch choice


class TestDistanceSpectrum:
    def test_two_then_four_clusters_k2(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        assert len(distance_spectrum(result, 1, 4)) == 2
        assert len(distance_spectrum(result, 1, 5)) == 4

    def test_two_then_four_clusters_k3(self, chain_k3_n6):
        result = solve(chain_k3_n6)
        assert len(distance_spectrum(result, 1, 5)) == 2
        assert len(distance_spectrum(result, 1, 6)) == 4

    def test_requires_instance(self, chain_k2_n5):
        result = parse_result(serialize_result(solve(chain_k2_n5)))
        with pytest.raises(ValueError):
            distance_spectrum(result, 1, 4)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_matches_reference_from_solutions(self, K):
        result = solve(random_instance(K, K + 6, 0.0, 600 + K)[0])
        compared = 0
        for u in range(1, K + 7):
            for v in range(u + K + 1, K + 7):
                want = _reference_spectrum(result, u, v)
                if want is None:
                    with pytest.raises(AmbiguousSpectrum):
                        distance_spectrum(result, u, v)
                    continue
                got = distance_spectrum(result, u, v)
                assert [x.hex() for x in got] == [x.hex() for x in want], (u, v)
                compared += 1
        assert compared

    def test_requires_span_beyond_window(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        with pytest.raises(ValueError):
            distance_spectrum(result, 1, 3)

    def test_pruned_subtree_rejected(self):
        inst, _ = random_instance(2, 8, 0.5, 103)
        assert any(v - u > 2 for (u, v) in inst.edges)
        result = solve(inst)
        with pytest.raises(SubtreeNotFull):
            distance_spectrum(result, 1, 8)

    def test_pruning_distance_lies_in_spectrum(self):
        # feasibility forces a long edge's distance to match one of the
        # finitely many root-to-leaf distances of the unpruned tree
        inst, _ = random_instance(2, 7, 1.0, 55)
        long_edges = [(u, v) for (u, v) in inst.edges if v - u > 2]
        assert long_edges
        stripped = Instance(
            2, 7,
            {e: d for e, d in inst.edges.items() if e not in long_edges},
            inst.initial_embedding,
        )
        free = solve(stripped)
        for (u, v) in long_edges:
            try:
                spectrum = distance_spectrum(free, u, v)
            except AmbiguousSpectrum:
                continue
            gap = min(abs(r - inst.edges[(u, v)]) for r in spectrum)
            assert gap <= 1e-6


def _reference_spectrum(result, u, v):
    """Spectrum of a full tree read off its solutions; None when ambiguous.

    On a tree with no pruning the leftmost level-u node lies on the path of
    the first solution, and its level-v descendants are the distinct
    v-prefixes of the solutions sharing its u-prefix.
    """
    root = result.branch_codes[0][:u]
    anchor = result.solutions[0][u - 1]
    points = {}
    for code, sol in zip(result.branch_codes, result.solutions):
        if code[:u] == root:
            points.setdefault(code[:v], sol[v - 1])
    dists = sorted(float(np.linalg.norm(p - anchor)) for p in points.values())
    tol = SPECTRUM_TOL * max(result.instance.edges.values())
    clusters = [[dists[0]]]
    for d in dists[1:]:
        if d - clusters[-1][-1] > tol:
            clusters.append([d])
        else:
            clusters[-1].append(d)
    reps = tuple(sum(c) / len(c) for c in clusters)
    if any(b - a < 10.0 * tol for a, b in zip(reps, reps[1:])):
        return None
    return reps
