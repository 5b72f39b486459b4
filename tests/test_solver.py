import logging
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgbp.errors import (
    BudgetExceeded,
    DegenerateSpan,
    DimensionMismatch,
    InvalidInstance,
    NodeBudgetExceeded,
)
from dgbp.cli import main
from dgbp.instance import (
    Instance,
    _line_index,
    _records,
    counterexample,
    edge_violations,
    parse_instance,
    random_instance,
    serialize_instance,
)
from dgbp.errors import ParseError
from dgbp.geometry import _anchor_planes, extend_stack, level_table
from dgbp.solver import (
    BATCH_ROWS,
    SolveResult,
    SolveStats,
    SolverOptions,
    _prefix_leaves,
    _read_bulk,
    _read_header,
    _read_solution_lines,
    brute_force,
    parse_result,
    recompute_code,
    recompute_codes,
    serialize_result,
    solve,
)
from dgbp.symmetry import verify_orbit
from decoder import recompute_codes_by_level
from reader import parse_result_by_line, split_lines
from writer import serialize_result_by_solution


def enumerate_line_walks():
    """Hand enumeration of the K=1 unit-distance family: walks on the line
    starting at 0, unit steps, with |x4 - x1| = 1 enforced at the end."""
    found = []
    for steps in product((1, -1), repeat=3):
        x = [0.0]
        for s in steps:
            x.append(x[-1] + s)
        if abs(abs(x[3] - x[0]) - 1.0) < 1e-12:
            found.append(x)
    return found


class TestCounterexampleFamily:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_six_solutions(self, K):
        result = solve(counterexample(K))
        assert result.solution_count == 6

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_solutions_satisfy_all_edges(self, K):
        inst = counterexample(K)
        result = solve(inst)
        for emb in result.solutions:
            assert not edge_violations(inst, emb, atol=0.0, rtol=1e-9)

    def test_k1_matches_hand_enumeration(self):
        walks = enumerate_line_walks()
        assert len(walks) == 6
        oracle = brute_force(counterexample(1))
        assert len(oracle) == 6
        got = sorted(tuple(np.round(e[:, 0], 9)) for e in oracle)
        want = sorted(tuple(np.round(w, 9)) for w in walks)
        assert got == want

    def test_k2_suffixes_six_of_eight(self):
        result = solve(counterexample(2))
        codes = set(result.branch_codes)
        assert len(codes) == 6
        missing = {c for c in product((0, 1), repeat=3)} - {c[2:] for c in codes}
        assert len(missing) == 2
        # one infeasible leaf under each level-3 subtree
        assert {m[0] for m in missing} == {0, 1}

    @pytest.mark.parametrize("K", [1, 2])
    def test_degeneracy_diagnostic_fires(self, K):
        result = solve(counterexample(K))
        assert result.stats.uniform_level_violations == (K + 2,)


class TestChain:
    def test_eight_solutions_all_suffixes(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        assert result.solution_count == 8
        assert [c[:2] for c in result.branch_codes] == [(0, 0)] * 8
        assert sorted(c[2:] for c in result.branch_codes) == sorted(
            product((0, 1), repeat=3))

    def test_no_degeneracy(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        assert result.stats.uniform_level_violations == ()
        assert result.stats.tangent_events == 0
        assert result.stats.max_window_residual <= 1e-9


class TestSolveContracts:
    def test_canonical_order_is_lexicographic(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        assert result.branch_codes == sorted(result.branch_codes)

    def test_codes_are_distinct_and_match_recomputation(self, corpus):
        for name in ("chain_k2_n5", "random_02", "random_07", "random_10"):
            inst = corpus[name]
            result = solve(inst)
            assert len(set(result.branch_codes)) == len(result.branch_codes), name
            for code, emb in zip(result.branch_codes, result.solutions):
                assert recompute_code(inst, emb) == code, name

    def test_keep_tree_is_ignored(self, corpus):
        for name in ("chain_k2_n5", "random_04", "counterexample_k2"):
            plain = solve(corpus[name])
            kept = solve(corpus[name], SolverOptions(keep_tree=True))
            assert serialize_result(kept) == serialize_result(plain), name
            assert kept.branch_codes == plain.branch_codes, name
            kept.stats.wall_time = plain.stats.wall_time
            assert kept.stats == plain.stats, name
            assert (verify_orbit(kept).reflection_checks
                    == verify_orbit(plain).reflection_checks), name

    def test_determinism_bit_identical(self, corpus):
        inst = corpus["random_04"]
        a = serialize_result(solve(inst))
        b = serialize_result(solve(inst))
        assert a == b

    def test_invalid_instance_rejected(self):
        inst = counterexample(2)
        edges = dict(inst.edges)
        del edges[(2, 3)]
        with pytest.raises(InvalidInstance):
            solve(Instance(2, 5, edges, inst.initial_embedding))

    def test_budget_exceeded_partial_result(self, chain_k2_n5):
        with pytest.raises(NodeBudgetExceeded) as err:
            solve(chain_k2_n5, SolverOptions(max_nodes=8))
        partial = err.value.result
        assert partial is not None
        assert partial.stats.budget_exceeded
        assert partial.solution_count < 8

    def test_deep_chain_has_no_recursion_limit(self, deep_chain):
        assert solve(deep_chain).solution_count == 2

    def test_one_window_residual_warning_per_solve(self, chain_k2_n5, caplog, monkeypatch):
        monkeypatch.setattr("dgbp.solver.WINDOW_RESIDUAL_ALARM", 0.0)
        with caplog.at_level(logging.WARNING, logger="dgbp.solver"):
            solve(chain_k2_n5)
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == 1

    def test_trivial_instance_n_equals_k(self):
        inst = Instance(2, 2, {(1, 2): 1.0}, ((0.0, 0.0), (1.0, 0.0)))
        result = solve(inst)
        assert result.solution_count == 1
        assert result.branch_codes == [(0, 0)]
        assert np.allclose(result.solutions[0], [[0, 0], [1, 0]])


def tangent_chain(K, scale, t=0.0):
    """K + 3 points of the unit box times ``scale``, window edges only.

    Vertex K + 2 is moved into the hyperplane of its window, so level K + 1
    splits, level K + 2 is tangent (one child per row) and level K + 3
    splits again.  Adding the same amount to every squared radius of vertex
    K + 2 adds it to h**2; ``t`` is that amount over the largest one.
    """
    pts = np.random.default_rng(K).random((K + 3, K))
    window = pts[1 : K + 1]
    normal = np.linalg.svd(window[:-1] - window[-1])[2][-1]
    pts[K + 1] += ((window[-1] - pts[K + 1]) @ normal) * normal
    pts *= scale
    edges = {(u, v): float(np.linalg.norm(pts[v - 1] - pts[u - 1]))
             for v in range(2, K + 4) for u in range(max(1, v - K), v)}
    radii = [(u, K + 2) for u in range(2, K + 2)]
    extra = t * max(edges[e] for e in radii) ** 2
    edges.update({e: math.sqrt(edges[e] ** 2 + extra) for e in radii})
    return Instance(K, K + 3, edges, tuple(map(tuple, pts[:K])))


class TestTangent:
    def test_tangent_extension_yields_single_child(self):
        # spheres around (0,0) and (2,0) with unit radii touch at (1,0)
        inst = Instance(
            2, 3,
            {(1, 2): 2.0, (1, 3): 1.0, (2, 3): 1.0},
            ((0.0, 0.0), (2.0, 0.0)),
        )
        result = solve(inst)
        assert result.solution_count == 1
        assert result.stats.tangent_events == 1
        assert np.allclose(result.solutions[0][2], [1, 0], atol=1e-9)
        assert result.branch_codes == [(0, 0, 0)]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_one_child_per_row_at_any_scale(self, K, scale):
        inst = tangent_chain(K, scale)
        result = solve(inst, SolverOptions(atol=1e-9 * scale))
        stats = result.stats
        assert result.solution_count == 4
        assert (stats.tangent_events, stats.empty_extensions) == (2, 0)
        assert stats.child_hist[K + 1] == [0, 2, 0]
        assert recompute_codes(inst, result.solutions) == result.branch_codes
        assert not any(edge_violations(inst, emb, atol=1e-9 * scale)
                       for emb in result.solutions)

    def test_level_below_the_band_is_empty(self, tmp_path):
        inst = tangent_chain(3, 1.0, t=-1e-9)
        result = solve(inst)
        assert result.solution_count == 0
        assert (result.stats.tangent_events, result.stats.empty_extensions) == (0, 2)
        path = tmp_path / "empty.txt"
        path.write_text(serialize_instance(inst), encoding="utf-8")
        assert main(["solve", str(path), "--out", str(tmp_path / "result.txt")]) == 2


class TestBruteForceOracle:
    @pytest.mark.parametrize("name", [
        "counterexample_k1", "counterexample_k2", "counterexample_k3",
        "counterexample_k4", "chain_k2_n5", "chain_k3_n6",
        "random_01", "random_03", "random_08",
    ])
    def test_matches_solve(self, corpus, name):
        inst = corpus[name]
        result = solve(inst)
        oracle = brute_force(inst)
        assert len(oracle) == result.solution_count
        for mine, theirs in zip(result.solutions, oracle):
            assert np.max(np.abs(mine - theirs)) <= 1e-9
        oracle_codes = {recompute_code(inst, emb) for emb in oracle}
        assert oracle_codes == set(result.branch_codes)

    def test_recompute_codes_checks_shape(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        stack = result.solutions
        assert recompute_codes(chain_k2_n5, stack) == result.branch_codes
        for bad in (stack[:, :-1], stack[..., :1], stack[0]):
            with pytest.raises(DimensionMismatch):
                recompute_codes(chain_k2_n5, bad)

    def test_unsatisfiable_pruning_edge_is_infeasible(self, corpus):
        inst = corpus["random_03"]
        pruning = [(u, v) for (u, v) in inst.edges if v - u > inst.dimension]
        assert pruning
        edges = dict(inst.edges)
        edges[pruning[0]] += 1.0
        broken = Instance(inst.dimension, inst.n, edges, inst.initial_embedding)
        result = solve(broken)
        assert result.solution_count == 0
        assert brute_force(broken).shape == (0, inst.n, inst.dimension)


    def test_cap_is_checked_before_validation(self):
        # n - K = 25 levels is over the 2**24 cap, valid instance or not
        valid = random_instance(1, 26, 0.0, 0)[0]
        invalid = Instance(1, 26, {(1, 2): 1.0}, ((0.0,),))
        for inst in (valid, invalid):
            with pytest.raises(BudgetExceeded):
                brute_force(inst)


class TestLevelTable:
    """``Instance._levels`` holds each level's pruning edges, built once."""

    def test_pruning_rows(self, corpus, deep_chain):
        for inst in [*corpus.values(), deep_chain]:
            K = inst.dimension
            prune = inst._levels[3]
            assert len(prune) == inst.n - K
            for v, (ranks, dist) in enumerate(prune, start=K + 1):
                back = [u for u in inst.predecessors(v) if u < v - K]
                assert ranks.dtype == np.int64 and dist.dtype == np.float64
                assert ranks.shape == dist.shape == (len(back),)
                assert ranks.tolist() == [u - 1 for u in back]
                assert dist.tolist() == [inst.edges[(u, v)] for u in back]
                assert (np.diff(ranks) > 0).all()
        # window-only levels have empty rows: every level of a chain, and
        # level K+1 of the deep chain, whose later levels have one edge back
        assert not any(len(ranks) for ranks, _ in corpus["chain_k3_n6"]._levels[3])
        deep = deep_chain._levels[3]
        assert len(deep[0][0]) == 0
        assert all(ranks.tolist() == [i - 1] for i, (ranks, _) in enumerate(deep[1:], start=1))

    def test_prefix_walk_reuses_the_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr("dgbp.instance.level_table",
                            lambda sq: calls.append(len(sq)) or level_table(sq))
        inst = random_instance(2, 10, 0.3, 7)[0]
        solve(inst)
        assert calls == [inst.n - 2]
        for m in (6, inst.n):
            _prefix_leaves(inst, m)
        assert calls == [inst.n - 2]


class TestBranchCode:
    def test_first_k_bits_zero(self, corpus):
        result = solve(corpus["random_06"])
        K = corpus["random_06"].dimension
        for code in result.branch_codes:
            assert code[:K] == (0,) * K


class TestSolutionShape:
    """Every producer hands over one C-contiguous float (S, n, K) array."""

    @staticmethod
    def check(stack, n, K, S=None):
        assert isinstance(stack, np.ndarray) and stack.dtype == np.float64
        assert stack.flags.c_contiguous and stack.shape[1:] == (n, K)
        assert S is None or len(stack) == S

    def test_solve_and_brute_force(self, corpus):
        for inst in corpus.values():
            result = solve(inst)
            self.check(result.solutions, inst.n, inst.dimension, len(result.branch_codes))
            self.check(brute_force(inst), inst.n, inst.dimension, result.solution_count)

    def test_infeasible(self, corpus):
        inst = corpus["random_03"]
        pruning = next((u, v) for (u, v) in sorted(inst.edges) if v - u > inst.dimension)
        edges = {**inst.edges, pruning: inst.edges[pruning] + 1.0}
        broken = Instance(inst.dimension, inst.n, edges, inst.initial_embedding)
        for stack in (solve(broken).solutions, brute_force(broken)):
            self.check(stack, inst.n, inst.dimension, 0)

    def test_parse_result(self, corpus):
        inst = corpus["random_03"]
        empty = SolveResult(None, np.empty((0, 8, 2)), [], SolveStats())
        for result in (solve(inst), solve(corpus["chain_k2_n5"]), empty):
            S, n, K = result.solutions.shape
            text = serialize_result(result)
            for parse in (parse_result, parse_result_by_line):
                self.check(parse(text).solutions, n, K, S)
            # the line loop that names a bulk read's error sizes its stack too
            data, linenos, starts, ends = _records(text)
            records = ((int(i), data[j:k]) for i, j, k in zip(linenos, starts, ends))
            *sizes, _, _ = _read_header(records)
            self.check(_read_solution_lines(records, *sizes)[0], n, K, S)

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_prefix_leaves(self, corpus, m):
        inst = corpus["random_03"]
        points, codes = _prefix_leaves(inst, m)
        self.check(points, m, inst.dimension, len(codes))


class TestResultSerialization:
    def test_round_trip(self, corpus):
        # every fixture, and a full tree of 1,024 solutions
        full_tree = random_instance(2, 12, 0.0, 12)[0]
        for name, inst in [*sorted(corpus.items()), ("full_tree_k2_n12", full_tree)]:
            result = solve(inst)
            loaded = parse_result(serialize_result(result))
            assert loaded.branch_codes == result.branch_codes, name
            assert loaded.stats == replace(result.stats, wall_time=0.0), name
            # 17 digits round-trip exactly
            assert len(loaded.solutions) == result.solution_count, name
            assert loaded.solutions.tobytes() == result.solutions.tobytes(), name

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999", "x1"])
    @pytest.mark.parametrize("padding", [[], ["# note", ""]], ids=["plain", "padded"])
    def test_bad_coordinate_rejected_with_line(self, chain_k2_n5, bad, padding):
        lines = serialize_result(solve(chain_k2_n5)).splitlines()
        code = [i for i, line in enumerate(lines) if line.startswith("code ")][1]
        lines[code + 1 : code + 1] = padding  # blank and comment lines are skipped
        at = code + len(padding) + 2  # second row of solution 1
        lines[at] = bad + " " + lines[at].split()[1]
        with pytest.raises(ParseError) as err:
            parse_result("\n".join(lines))
        assert err.value.line == at + 1

    @pytest.mark.parametrize("code", ["0000", "000000", "0"])
    def test_code_of_wrong_length_rejected_with_line(self, chain_k2_n5, code):
        lines = serialize_result(solve(chain_k2_n5)).splitlines()
        at = lines.index("code 00100")
        lines[at] = "code " + code
        with pytest.raises(ParseError) as err:
            parse_result("\n".join(lines))
        assert err.value.line == at + 1

    @pytest.mark.parametrize("data, line, byte", [
        (b"format: dgp-result 1\n\xff\n", 2, "0xff"),
        (b"format: dgp-result 1\ndimension: 2\nn: 5\xc3\n", 3, "0xc3"),
    ], ids=["invalid-start", "truncated"])
    def test_bytes_not_utf8_rejected_with_line(self, data, line, byte):
        with pytest.raises(ParseError) as err:
            parse_result(data)
        assert (str(err.value), err.value.line) == (
            f"line {line}: not UTF-8 text (byte {byte})", line)

    def test_infeasible_status(self, corpus):
        inst = corpus["random_03"]
        pruning = [(u, v) for (u, v) in inst.edges if v - u > inst.dimension]
        edges = dict(inst.edges)
        edges[pruning[0]] += 1.0
        result = solve(Instance(inst.dimension, inst.n, edges, inst.initial_embedding))
        assert "status: infeasible" in serialize_result(result)


#: Characters on which the line model and Python's ``str`` split or strip
#: differently: ``str`` takes every one as whitespace, and ends a line at
#: each but U+001F and U+00A0.
BEYOND_PLAIN = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u2028\u2029"


#: Coordinates whose bits differ while their text may not: signed zeros,
#: infinities and two NaN payloads.
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan,
                  np.array(0x7FF8000000000001, dtype=np.uint64).view(np.float64).item())


@st.composite
def hand_results(draw):
    """Results built by hand, K = 1..4, with 0, 1 or many solutions.

    Rows are drawn from a pool of a few, so equal rows turn up both in
    neighbouring solutions and in solutions far apart.  The pool holds a
    base row and variants of it that replace some slots, so rows that differ
    in one slot only (say 0.0 against -0.0) turn up too.  Codes are arbitrary.
    """
    K = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(width=64))
    base = draw(st.lists(value, min_size=K, max_size=K))
    pool = [base] + [[draw(st.one_of(st.just(b), value)) for b in base]
                     for _ in range(draw(st.integers(0, 3)))]
    count = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 24)))
    rows = draw(st.lists(st.sampled_from(pool), min_size=count * n, max_size=count * n))
    solutions = np.array(rows, dtype=float).reshape(count, n, K)
    codes = [tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
             for _ in range(count)]
    stats = SolveStats(
        nodes_feasible=draw(st.integers(0, 99)),
        max_window_residual=draw(st.floats(0.0, 1.0)),
        child_hist={lvl: [0, 1, 0] for lvl in range(1, draw(st.integers(1, n)))},
        budget_exceeded=draw(st.booleans()))
    instance = Instance(K, n, {}, [[0.0] * K] * K) if draw(st.booleans()) else None
    return SolveResult(instance, solutions, codes, stats)


class TestWriter:
    """serialize_result against the writer that formats every row."""

    @given(result=hand_results())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_per_solution_writer(self, result):
        text = serialize_result(result)
        assert text == serialize_result_by_solution(result)
        # a result sizes itself, with or without solutions or an instance
        S, n, K = result.solutions.shape
        assert f"\ndimension: {K}\nn: {n}\nsolution_count: {S}\n" in text

    @pytest.mark.parametrize("first, second", [
        (0.0, -0.0), (-0.0, 0.0), (math.nan, SPECIAL_VALUES[-1]), (math.inf, 1e308)])
    def test_rows_that_differ_only_in_bits(self, first, second):
        # the row of the second solution is formatted from its own bits
        solutions = np.array([[[1.0, first]], [[1.0, second]]])
        result = SolveResult(None, solutions, [(0,), (1,)], SolveStats())
        text = serialize_result(result)
        assert text == serialize_result_by_solution(result)
        assert text.endswith(f"code 1\n1 {second:.17g}\n")

    def test_budget_exceeded_partial_result(self, monkeypatch):
        # small batches, so that some leaves are out before the budget is hit
        monkeypatch.setattr("dgbp.solver.BATCH_ROWS", 16)
        full_tree = random_instance(2, 12, 0.0, 12)[0]
        with pytest.raises(NodeBudgetExceeded) as err:
            solve(full_tree, SolverOptions(max_nodes=1500))
        partial = err.value.result
        assert partial.solution_count and partial.stats.budget_exceeded
        assert serialize_result(partial) == serialize_result_by_solution(partial)

    def test_solved_results(self, corpus):
        full_tree = random_instance(2, 12, 0.0, 12)[0]
        for inst in [*corpus.values(), full_tree]:
            result = solve(inst)
            assert serialize_result(result) == serialize_result_by_solution(result)


@pytest.fixture(scope="module")
def small_results():
    """Serialized results of small random instances, K = 1..4."""
    return [serialize_result(solve(random_instance(K, K + 4, p, 900 + 10 * K + seed)[0]))
            for K in (1, 2, 3, 4) for seed, p in enumerate((0.0, 0.3, 0.6))]


def bulk_read(text: str):
    """What ``parse_result``'s bulk read makes of a text: ``(stack, codes)`` or None."""
    data, linenos, starts, ends = _records(text)
    records = ((int(i), data[j:k]) for i, j, k in zip(linenos, starts, ends))
    K, n, count, _, first = _read_header(records)
    return _read_bulk(data, starts[first:], ends[first:], K, n, count)


def outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    stack = result.solutions
    return "ok", stack.shape, stack.dtype, stack.tobytes(), result.branch_codes, result.stats


LAYOUTS = ("blank", "comment", "tabs", "double-spaces", "trailing", "code-spaces",
           "twin-spaces")
TOKEN_DAMAGES = ("nan", "x", "1_0", "")
DAMAGES = (*TOKEN_DAMAGES, "bit-2", "drop-row", "move-token", "long-row", "move-bit",
           "code-tab", "twin-damage", "repeat-damage")


HEADER_CHANGES = (*(f"{verb} {key}" for verb in ("drop", "set")
                    for key in ("dimension", "n", "solution_count")),
                  "drop solutions", "drop child_hist", "hist-row", "row-before-hist",
                  "early-code", "unknown-field", "wrong-format", "empty-block", "no-solutions")
SIZE_VALUES = ("0", "-1", "1", "2", "5", "x", "", "2.5", "1_0", "+3", "1e3")
HIST_ROWS = ("1 0 x 0", "1 0 0", "1 0 0 0 0", "a b c d", "1.0 0 0 0", "7 1 1 1")


class TestBulkRead:
    """parse_result against the line loop, on laid-out and damaged files."""

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_matches_line_loop(self, small_results, data):
        lines = data.draw(st.sampled_from(small_results)).splitlines()
        body = lines.index("solutions:") + 1
        damages = data.draw(st.lists(st.sampled_from(DAMAGES), max_size=2))
        layouts = data.draw(st.lists(st.sampled_from(LAYOUTS), max_size=6))

        def damage(row, token):
            parts = lines[row].split()
            parts[data.draw(st.integers(0, len(parts) - 1))] = token
            lines[row] = " ".join(parts)

        for change in damages + layouts:
            codes = [i for i in range(body, len(lines)) if lines[i].startswith("code ")]
            rows = [i for i in range(body, len(lines))
                    if lines[i] and not lines[i].startswith(("code ", "#"))]
            at = data.draw(st.integers(0, len(lines)))
            if change in ("blank", "comment"):
                lines.insert(at, "" if change == "blank" else "# note")
            elif change == "trailing":
                lines[at % len(lines)] += " \t "
            elif not rows or not codes:  # a code-tab damage may leave no code line
                continue
            elif change in ("twin-spaces", "twin-damage"):
                # a row with a byte-identical twin, which the bulk read reads
                # once: respaced, the two still match after strip but not
                # inside; damaged, only one of them is bad
                texts = [lines[i] for i in rows]
                twins = [i for i in rows if texts.count(lines[i]) > 1]
                if not twins:
                    continue
                row = twins[at % len(twins)]
                if change == "twin-spaces":
                    lines[row] = " \t ".join(lines[row].split())
                else:
                    damage(row, data.draw(st.sampled_from(TOKEN_DAMAGES)))
            elif change == "repeat-damage":
                # a damaged row, and the same text again further down
                row = rows[at % len(rows)]
                damage(row, data.draw(st.sampled_from(TOKEN_DAMAGES)))
                later = [i for i in rows if i > row]
                if later:
                    lines[data.draw(st.sampled_from(later))] = lines[row]
            elif change in ("tabs", "double-spaces"):
                row = rows[at % len(rows)]
                lines[row] = ("\t" if change == "tabs" else "  ").join(lines[row].split())
            elif change == "code-spaces":
                code = codes[at % len(codes)]
                lines[code] = "code  \t" + lines[code][5:]
            elif change == "drop-row":
                del lines[rows[at % len(rows)]]
            elif change == "move-token":
                # the token count stays right, the count per row does not
                row, to = rows[at % len(rows)], data.draw(st.sampled_from(rows))
                token, _, lines[row] = lines[row].partition(" ")
                lines[to] += " " + token
            elif change == "long-row":
                # 2K+1 tokens: the row holds the next row's slot
                lines[rows[at % len(rows)]] += " 0.5" * (len(lines[rows[0]].split()) + 1)
            elif change == "move-bit":
                # the bit count stays right, the length per code does not
                code, to = codes[at % len(codes)], data.draw(st.sampled_from(codes))
                bit = lines[code][-1]
                lines[code] = lines[code][:-1]
                lines[to] += bit
            elif change == "code-tab":
                code = codes[at % len(codes)]
                lines[code] = "code\t" + lines[code][5:]
            elif change == "bit-2":
                code = codes[at % len(codes)]
                bit = data.draw(st.integers(5, len(lines[code]) - 1))
                lines[code] = lines[code][:bit] + "2" + lines[code][bit + 1 :]
            else:
                damage(rows[at % len(rows)], change)
        text = ("\r\n" if data.draw(st.booleans()) else "\n").join(lines)
        assert outcome(parse_result, text) == outcome(parse_result_by_line, text)
        if not damages:
            # layout alone never sends the read to the line loop
            assert bulk_read(text) is not None

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_header_matches_line_loop(self, small_results, data):
        lines = data.draw(st.sampled_from(small_results)).splitlines()

        def find(prefix):
            return next((i for i, line in enumerate(lines) if line.startswith(prefix)), None)

        for change in data.draw(st.lists(st.sampled_from(HEADER_CHANGES), min_size=1,
                                         max_size=3)):
            body = find("solutions:")
            hist = find("child_hist:")
            key = change.partition(" ")[2]
            at = find(key + ":") if key else None
            if change.startswith("drop ") and at is not None:
                del lines[at]
            elif change.startswith("set ") and at is not None:
                lines[at] = f"{key}: {data.draw(st.sampled_from(SIZE_VALUES))}"
            elif change == "hist-row" and hist is not None:
                row = data.draw(st.sampled_from(HIST_ROWS))
                lines.insert(data.draw(st.integers(hist + 1, body or len(lines))), row)
            elif change == "row-before-hist":
                lines.insert(data.draw(st.integers(0, hist or len(lines))), "1 0 0 1")
            elif change == "early-code" and body is not None:
                code = find("code ")
                if code is not None:
                    lines.insert(data.draw(st.integers(0, body)), lines[code])
            elif change == "unknown-field":
                lines.insert(data.draw(st.integers(0, body or len(lines))), "colour: blue")
            elif change == "wrong-format":
                lines[0] = "format: dgp-instance 1"
            elif change == "empty-block" and body is not None:
                del lines[body + 1 :]
            elif change == "no-solutions" and body is not None:
                del lines[body + 1 :]
                count = find("solution_count:")
                if count is not None:
                    lines[count] = "solution_count: 0"
        text = "\n".join(lines)
        assert outcome(parse_result, text) == outcome(parse_result_by_line, text)

    @pytest.mark.parametrize("text", [
        "",
        "format: dgp-result 1\nsolutions:\n",
        "dimension: 0\nn: 3\nsolution_count: 0\nsolutions:\n",
        "dimension: 2\nn: 0\nsolution_count: 0\nsolutions:\n",
        "dimension: -1\nn: -1\nsolution_count: 0\n",
        "dimension: 1\nn: 2\nsolution_count: 0\n",
        "dimension: 1\nn: 2\nsolution_count: 1\n",
        "dimension: 1\nn: 2\nsolution_count: 0\nsolutions:\ncode 01\n0.5\n1.5\n",
        "dimension: 1\nn: 2\nsolutions:\ncode 01\n0.5\n1.5\n",
        "n: 2\nsolution_count: 1\nsolutions:\ncode 01\n0.5\n1.5\n",
        "dimension: 1\nsolution_count: 1\nsolutions:\ncode 01\n0.5\n1.5\n",
        "dimension: 1\nn: 2\nsolution_count: 1\nsolutions:\ncode 01\nnan\n1.5\n",
        "dimension: 1\nn: 2\nsolution_count: 1\ncode 01\nsolutions:\n",
        "dimension: 1\nn: 2\nchild_hist:\n1 0 0\nsolutions:\n",
        "dimension: 1\nn: 2\n1 0 0 1\nchild_hist:\nsolutions:\n",
    ], ids=["empty", "no-sizes", "K=0", "n=0", "negative-no-block", "count=0-no-block",
            "no-solutions-line", "count=0-one-block", "no-count", "no-dimension", "no-n",
            "nan", "early-code", "short-hist-row", "row-before-hist"])
    def test_header_edge_cases(self, text):
        assert outcome(parse_result, text) == outcome(parse_result_by_line, text)

    @pytest.mark.parametrize("text, line, message", [
        ("dimension: 0\nn: 3\nsolution_count: 0\nsolutions:\n", 1,
         "dimension must be >= 1, got 0"),
        ("dimension: 2\nn: 0\nsolution_count: 0\nsolutions:\n", 2, "n must be >= 1, got 0"),
        ("dimension: -1\nn: -7\nsolution_count: 0\n", 1, "dimension must be >= 1, got -1"),
        ("dimension: 2\n\nn: -7\nsolution_count: 0\n", 3, "n must be >= 1, got -7"),
    ], ids=["K=0", "n=0", "negative", "negative-n"])
    def test_sizes_below_one_rejected(self, text, line, message):
        # the K=0, n=0 and negative cases above: an empty result still has
        # a shape, so both sizes must be >= 1
        for parse in (parse_result, parse_result_by_line):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)

    @pytest.fixture(scope="class")
    def tree_lines(self):
        """The lines of a K=2, n=8 full tree's result: 64 solutions, no pruning."""
        return serialize_result(solve(random_instance(2, 8, 0.0, 3)[0])).splitlines()

    @staticmethod
    def shared_rows(lines):
        """``(code line, row)`` of every row the codes predict as read before.

        Row j of a solution repeats the row of the solution before when the
        two codes agree on bits 0..j.
        """
        heads = [i for i, line in enumerate(lines) if line.startswith("code ")]
        return [(head, row) for before, head in zip(heads, heads[1:])
                for row in range(len(lines[head]) - 5)
                if lines[head][5 : 5 + row + 1] == lines[before][5 : 5 + row + 1]]

    @pytest.mark.parametrize("which", ["first", "last", "root"])
    def test_edited_shared_row(self, tree_lines, which):
        # a row the codes predict as shared, edited to another valid number:
        # the comparison of the shared bytes catches it, and the read stays bulk
        lines = list(tree_lines)
        shared = self.shared_rows(lines)
        head, row = {"first": shared[0], "last": shared[-1],
                     "root": next(pair for pair in shared if pair[1] == 0)}[which]
        at = head + 1 + row
        value = float(lines[at].split()[1]) + 0.25
        lines[at] = f"{lines[at].split()[0]} {value!r}"
        text = "\n".join(lines)
        assert outcome(parse_result, text) == outcome(parse_result_by_line, text)
        stack, _ = bulk_read(text)
        solution = sum(line.startswith("code ") for line in lines[:head + 1]) - 1
        assert stack[solution, row, 1] == value != stack[solution - 1, row, 1]

    @pytest.mark.parametrize("how", ["code", "block"])
    def test_duplicate_code(self, tree_lines, how):
        # one code line repeated: on its own, or with its rows as an extra solution
        lines = list(tree_lines)
        heads = [i for i, line in enumerate(lines) if line.startswith("code ")]
        if how == "code":
            lines[heads[5]] = lines[heads[4]]
        else:
            lines[heads[5] : heads[5]] = lines[heads[4] : heads[5]]
            lines[lines.index("solution_count: 64")] = "solution_count: 65"
        text = "\n".join(lines)
        assert outcome(parse_result, text) == outcome(parse_result_by_line, text)
        stack, codes = bulk_read(text)
        assert codes[4] == codes[5] and len(codes) == 64 + (how == "block")

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_bytes_read_as_str(self, small_results, data):
        # a result given as bytes parses as its text, whatever characters it holds
        lines = data.draw(st.sampled_from(small_results)).splitlines()
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(lines)))
            lines.insert(at, data.draw(st.sampled_from(["", "# note", "# caf\u00e9", "x"])))
        text = data.draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + data.draw(st.sampled_from(BEYOND_PLAIN)) + text[at:]
        want = outcome(parse_result_by_line, text)
        assert outcome(parse_result, text.encode()) == outcome(parse_result, text) == want

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1f", "\r", "\x85",
                                      "\u00a0", "\u2028", "\x7f", "\x00"])
    @pytest.mark.parametrize("where", ["row-inside", "row-end", "code-end", "header",
                                       "comment"])
    def test_text_beyond_plain(self, small_results, char, where):
        # characters on which bytes and str split or strip differently: only
        # LF, CRLF and CR end a line, and only ASCII whitespace separates
        # block fields, so the str read, the bytes read and the reference
        # agree, and the outcome is the one the line model gives
        lines = small_results[4].splitlines()
        row = lines.index("solutions:") + 3
        if where == "row-inside":
            lines[row] = lines[row].replace(" ", char, 1)
        elif where == "row-end":  # a blank after it, so that a CR is not a CRLF
            lines[row] += char + " "
        elif where == "code-end":
            lines[row - 2] += char + " "
        elif where == "header":
            lines.insert(1, f" {char} ")
        else:
            lines.insert(row, "# " + char + " note")
        text = "\n".join(lines)
        want = outcome(parse_result_by_line, text)
        assert outcome(parse_result, text) == want
        assert outcome(parse_result, text.encode()) == want
        data = text.encode()
        assert [data[i:j] for i, j in zip(*_line_index(data))] == split_lines(data)
        # ASCII whitespace is a separator and a CR ends the line, which
        # leaves a stray row inside a comment and blank lines in the header;
        # a header line holding any other character is not blank
        reads = (char in "\x0b\x0c" or where == "comment" and char != "\r"
                 or where in ("row-end", "code-end", "header") and char == "\r")
        assert want[0] == ("ok" if reads else "error")

    @pytest.mark.parametrize("char", ["\t", "\x0b", "\x0c", "\u00a0", "\u2028", "\x85",
                                      "\u0665", "\uff15"])
    @pytest.mark.parametrize("site", ["instance-value", "instance-key", "result-value",
                                      "result-key", "histogram"])
    def test_one_field_model(self, char, site):
        # fields and histogram rows of both file kinds follow the block rows'
        # model: ASCII whitespace separates, and any other space or digit is
        # a character of the token, so its line is an error
        inst = counterexample(2)
        kind = site.split("-")[0]
        if kind == "instance":
            parse, text = parse_instance, serialize_instance(inst)
        else:
            parse, text = parse_result, serialize_result(solve(inst))
        lines = text.splitlines()
        if site == "histogram":
            i = lines.index("child_hist:") + 1
            lines[i] = lines[i].replace(" ", " " + char, 1)
        else:
            i = lines.index("n: 5")
            lines[i] = f"n{char}: 5" if site.endswith("key") else f"n: {char}5"
        changed = "\n".join(lines) + "\n"
        if char in "\t\x0b\x0c":
            if kind == "instance":
                assert serialize_instance(parse_instance(changed)) == text
            else:
                assert outcome(parse_result, changed) == outcome(parse_result, text)
            return
        key, value = "n" + char, char + "5"
        message = {"instance-value": f"bad n {value!r}",
                   "result-value": f"bad value {value!r} for 'n'",
                   "histogram": f"bad histogram line {lines[i]!r}"}
        want = ("error", f"line {i + 1}: {message.get(site, f'unknown field {key!r}')}", i + 1)
        with pytest.raises(ParseError) as err:
            parse(changed)
        assert ("error", str(err.value), err.value.line) == want
        if kind == "result":
            assert outcome(parse_result_by_line, changed) == want

    def test_lone_surrogate_rejected_with_line(self, small_results):
        # a str that no UTF-8 encodes is the line-numbered error of bytes that are not UTF-8
        lines = small_results[4].splitlines()
        lines.insert(2, "# \ud800 note")
        text = "\n".join(lines)
        for parse in (parse_result, parse_result_by_line):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (str(err.value), err.value.line) == (
                "line 3: not UTF-8 text (byte 0xed)", 3)

    @pytest.mark.parametrize("layout", ["crlf", "cr", "tabs", "spaces", "vt-ff", "trailing",
                                        "leading", "blank", "comment", "code-spaces",
                                        "non-ascii-comment", "manifest"])
    def test_layouts_stay_bulk(self, tree_lines, layout):
        lines = list(tree_lines)
        body = lines.index("solutions:") + 1
        if layout == "manifest":
            lines.insert(0, "# manifest command: dgbp solve donn\u00e9es.txt")
        for i in range(body, len(lines), 7):
            if layout in ("tabs", "spaces", "vt-ff") and not lines[i].startswith("code "):
                lines[i] = lines[i].replace(" ", {"tabs": "\t", "spaces": "   ",
                                                  "vt-ff": "\x0b \x0c"}[layout])
            elif layout == "trailing":
                lines[i] += " \t"
            elif layout == "leading":
                lines[i] = "\t " + lines[i]
            elif layout == "blank":
                lines[i] += "\n\n \t"
            elif layout == "comment":
                lines[i] += "\n# note"
            elif layout == "non-ascii-comment":
                lines[i] += "\n# caf\u00e9 \u2028 \x85 \u00a0"
            elif layout == "code-spaces" and lines[i].startswith("code "):
                lines[i] = "code  \t" + lines[i][5:]
        text = {"crlf": "\r\n", "cr": "\r"}.get(layout, "\n").join(lines)
        assert outcome(parse_result, text) == outcome(parse_result_by_line, text)
        stack, codes = bulk_read(text)
        result = parse_result("\n".join(tree_lines))
        assert stack.tobytes() == result.solutions.tobytes()
        assert codes == result.branch_codes

    @pytest.mark.parametrize("text, line, message", [
        ("dimension: 2\nn: 100000000000000000000\nsolution_count: 0\nsolutions:\n", 2,
         "n must be <= 576460752303423487, got 100000000000000000000"),
        ("n: 3000000000\ndimension: 384307169\nsolution_count: 0\nsolutions:\n", 2,
         "dimension must be <= 384307168, got 384307169"),
        ("dimension: 1\nn: 1152921504606846976\nsolution_count: 0\nsolutions:\n", 2,
         "n must be <= 1152921504606846975, got 1152921504606846976"),
    ], ids=["n=1e20", "n*K", "n-past-limit"])
    def test_sizes_no_array_holds_rejected(self, text, line, message):
        # n * K float64 values must fit one array, even with no solutions
        for parse in (parse_result, parse_result_by_line):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (str(err.value), err.value.line) == (f"line {line}: {message}", line)

    def test_largest_sizes_read_empty(self):
        # sizes up to the limit give an empty result of that shape, sized by nothing
        text = "dimension: 2\nn: 3000000000\nsolution_count: 0\nsolutions:\n"
        for parse in (parse_result, parse_result_by_line):
            assert parse(text).solutions.shape == (0, 3_000_000_000, 2)
        text = "dimension: 1\nn: 1152921504606846975\nsolution_count: 0\nsolutions:\n"
        assert parse_result(text).solutions.shape == (0, 1152921504606846975, 1)


@pytest.fixture(scope="module")
def cap_instances(corpus):
    names = ("chain_k2_n5", "random_04", "counterexample_k2")
    full_tree = random_instance(2, 12, 0.0, 12)[0]  # 1,024 solutions, no pruning
    return [corpus[name] for name in names] + [full_tree]


class TestBatchedSearch:
    @pytest.mark.parametrize("cap", [1, 3])
    def test_batch_cap_does_not_change_output(self, cap_instances, monkeypatch, cap):
        def run():
            return [serialize_result(solve(inst)) for inst in cap_instances]

        default = run()
        monkeypatch.setattr("dgbp.solver.BATCH_ROWS", cap)
        assert run() == default

    def test_levels_in_code_prefix_order(self, cap_instances, monkeypatch):
        # batches are expanded in code prefix order at any cap, so the
        # leaves come out strictly increasing: sorted, side 0 first
        for cap in (None, 1, 3):
            if cap is not None:
                monkeypatch.setattr("dgbp.solver.BATCH_ROWS", cap)
            for inst in cap_instances:
                codes = solve(inst).branch_codes
                assert all(a < b for a, b in zip(codes, codes[1:])), cap

    def test_single_child_levels_extend_in_place(self, deep_chain, monkeypatch):
        # Only vertex K+1 of the chain branches.  After it each row keeps one
        # child, so the batch is extended in place: every level's anchors are
        # a view of the array the level before read.  The previous view is
        # held while the next level is placed, so a copy could not reuse its
        # buffer and look shared.
        previous, shared, calls = None, 0, 0

        def placed(anchors, *args):
            nonlocal previous, shared, calls
            shared += previous is not None and np.shares_memory(anchors, previous)
            previous, calls = anchors, calls + 1
            return extend_stack(anchors, *args)

        monkeypatch.setattr("dgbp.solver.extend_stack", placed)
        assert solve(deep_chain).solution_count == 2
        # one copy, where vertex K+1 forks; each of the other n - K - 2 pairs shares
        assert (calls, shared) == (deep_chain.n - 3, deep_chain.n - 5)

    def test_brute_force_independent_of_batch_cap(self, cap_instances, monkeypatch):
        default = [brute_force(inst) for inst in cap_instances]
        monkeypatch.setattr("dgbp.solver.BATCH_ROWS", 1)
        for inst, want in zip(cap_instances, default):
            got = brute_force(inst)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


DECODE_FAMILIES = ("gauss", "grid", "mixed", "turning", "flat")


def family_embeddings(rng, family: str, m: int, n: int, K: int) -> np.ndarray:
    """m embeddings (m, n, K) of one family.

    ``grid`` is a walk on the integer lattice by nonzero steps with
    coordinates in {-1, 0, 1}: consecutive window normals are often exactly
    orthogonal (orientation ties), points often lie exactly on their plane,
    and some windows are flat when K > 2.  ``mixed`` rounds half of the
    gaussian points.  ``turning`` walks the first two coordinates round a
    circle by more than a right angle per vertex, so canonical normals keep
    reversing.  ``flat`` repeats one point: a flat window when K > 1, a
    point on its plane when K = 1.
    """
    if family == "grid":
        steps = rng.integers(-1, 2, size=(m, n, K))
        steps[~steps.any(-1), 0] = 1
        return np.cumsum(steps, axis=1).astype(float)
    X = rng.normal(size=(m, n, K))
    if family == "mixed":
        rounded = rng.random((m, n)) < 0.5
        X[rounded] = np.round(X[rounded])
    elif family == "turning" and K > 1:
        angle = rng.uniform(0.55, 0.95) * np.pi * np.arange(n)
        X[:, :, 0], X[:, :, 1] = np.cos(angle), np.sin(angle)
    elif family == "flat" and n > 1:
        v = rng.integers(1, n)
        X[:, v] = X[:, v - 1]
    return X


class TestRecomputeCodes:
    """recompute_codes against the decoder that places one plane per level."""

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_level_by_level_decoder(self, data):
        K = data.draw(st.integers(1, 4), label="K")
        n = data.draw(st.integers(K, K + 8), label="n")
        family = data.draw(st.sampled_from(DECODE_FAMILIES), label="family")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        pool = family_embeddings(rng, family, data.draw(st.integers(1, 6)), n, K)
        # the widest stack crosses two chunk boundaries and ends in a part chunk
        wide = 2 * (BATCH_ROWS // max(1, n - K)) + 1
        S = data.draw(st.sampled_from([0, 1, len(pool), wide]), label="S")
        stack = pool[rng.integers(len(pool), size=S)]
        inst = Instance(K, n, {}, [[0.0] * K] * K)
        try:
            want = recompute_codes_by_level(inst, stack)
        except DegenerateSpan:
            with pytest.raises(DegenerateSpan):
                recompute_codes(inst, stack)
            return
        assert recompute_codes(inst, stack) == want
        if S:
            assert recompute_code(inst, stack[0]) == want[0]

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_lattice_ties_survive_exact_shifts(self, data):
        # x_v = 2 x_{v-1} - x_{v-2} lies on the line through its last two
        # anchors, so in its window's plane: its gap is a rounding error of
        # either sign.  For K > 2 the three collinear points would make a
        # later window flat, so only the last vertex continues its step.
        K = data.draw(st.integers(2, 4), label="K")
        n = data.draw(st.integers(K + 2, K + 8), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        steps = rng.integers(-2, 3, size=(n, K))
        steps[~steps.any(-1), 0] = 1
        walk = np.cumsum(steps, axis=0).astype(float)
        levels = range(K + 1, n + 1) if K == 2 else [n]
        tied = [v for v in levels if rng.random() < 0.4] or [n]
        for v in tied:
            walk[v - 1] = 2.0 * walk[v - 2] - walk[v - 3]
        inst = Instance(K, n, {}, walk[:K].tolist())
        try:
            [code] = recompute_codes_by_level(inst, walk[None])
        except DegenerateSpan:
            return  # a flat lattice window
        # every shift is exact on these integers, and so is every difference
        signs = np.array(list(product((-1.0, 0.0, 1.0), repeat=K)))
        for size in (1e3, 1e6, 2.0**40):
            shifted = walk + size * signs[:, None, :]
            assert recompute_codes(inst, shifted) == [code] * len(signs)
            assert recompute_codes_by_level(inst, shifted) == [code] * len(signs)
        # 1e-6 off the plane, either way, is read as that side
        near = walk + 1e3 * signs[:, None, :]
        for v in tied:
            normal = _anchor_planes(walk[None, v - 1 - K : v - 1], None)[0]
            bits = []
            for step in (1e-6, -1e-6):
                moved = near.copy()
                moved[:, v - 1] += step * normal
                codes = recompute_codes(inst, moved)
                assert codes == recompute_codes_by_level(inst, moved)
                bits.append({c[v - 1] for c in codes})
            assert bits in ([{0}, {1}], [{1}, {0}])

    def test_right_angle_walk(self):
        # K = 2 on the unit grid: every turn is a tie, a straight step puts
        # the point on its plane (bit 0), and a repeated point is flat
        walk = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3),
                         (1, 2), (2, 2)], dtype=float)
        inst = Instance(2, len(walk), {}, walk[:2].tolist())
        normals = _anchor_planes(walk[np.arange(len(walk) - 2)[:, None] + np.arange(2)], None)
        assert any(a @ b == 0.0 for a, b in zip(normals, normals[1:]))
        codes = recompute_codes(inst, walk[None])
        assert codes == recompute_codes_by_level(inst, walk[None])
        assert codes[0][5] == 0  # (0, 3) lies on the line through (0, 1) and (0, 2)
        flat = np.concatenate([walk[:3], walk[2:-1]])
        for decode in (recompute_codes, recompute_codes_by_level):
            with pytest.raises(DegenerateSpan):
                decode(inst, flat[None])
