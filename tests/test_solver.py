import logging
import math
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgbp.errors import DegenerateSpan, DimensionMismatch, InvalidInstance, NodeBudgetExceeded
from dgbp.instance import Instance, counterexample, edge_violations, random_instance
from dgbp.errors import ParseError
from dgbp.geometry import hyperplane_through
from dgbp.solver import (
    BATCH_ROWS,
    SolveResult,
    SolveStats,
    SolverOptions,
    _LineReader,
    _read_solutions,
    brute_force,
    parse_result,
    recompute_code,
    recompute_codes,
    serialize_result,
    solve,
)
from dgbp.symmetry import verify_orbit
from decoder import recompute_codes_by_level
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
        stack = np.asarray(result.solutions)
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
        assert brute_force(broken) == []


class TestBranchCode:
    def test_first_k_bits_zero(self, corpus):
        result = solve(corpus["random_06"])
        K = corpus["random_06"].dimension
        for code in result.branch_codes:
            assert code[:K] == (0,) * K


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
            assert (np.asarray(loaded.solutions).tobytes()
                    == np.asarray(result.solutions).tobytes()), name

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

    def test_infeasible_status(self, corpus):
        inst = corpus["random_03"]
        pruning = [(u, v) for (u, v) in inst.edges if v - u > inst.dimension]
        edges = dict(inst.edges)
        edges[pruning[0]] += 1.0
        result = solve(Instance(inst.dimension, inst.n, edges, inst.initial_embedding))
        assert "status: infeasible" in serialize_result(result)


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
    solutions = [np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
                 for _ in range(count)]
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
        if result.instance is None and not result.solutions:
            for write in (serialize_result, serialize_result_by_solution):
                with pytest.raises(ValueError):
                    write(result)
        else:
            assert serialize_result(result) == serialize_result_by_solution(result)

    @pytest.mark.parametrize("first, second", [
        (0.0, -0.0), (-0.0, 0.0), (math.nan, SPECIAL_VALUES[-1]), (math.inf, 1e308)])
    def test_rows_that_differ_only_in_bits(self, first, second):
        # the row of the second solution is formatted from its own bits
        solutions = [np.array([[1.0, first]]), np.array([[1.0, second]])]
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
        assert partial.solutions and partial.stats.budget_exceeded
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


def line_loop(text):
    """parse_result by the line loop alone, the reference for the bulk read."""
    reader = _LineReader()
    reader.read(text.splitlines(), 0)
    return reader.result(text)


def outcome(parse, text):
    try:
        result = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line
    stack = np.asarray(result.solutions)
    return "ok", stack.shape, stack.tobytes(), result.branch_codes, result.stats


LAYOUTS = ("blank", "comment", "tabs", "double-spaces", "trailing", "code-spaces",
           "twin-spaces")
TOKEN_DAMAGES = ("nan", "x", "1_0", "")
DAMAGES = (*TOKEN_DAMAGES, "bit-2", "drop-row", "move-token", "long-row", "move-bit",
           "code-tab", "twin-damage", "repeat-damage")


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
            elif not rows:
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
        assert outcome(parse_result, text) == outcome(line_loop, text)
        if not damages:
            # layout alone never sends the read to the line loop
            split = text.splitlines()
            reader = _LineReader()
            start = reader.read(split, 0, until_solutions=True)
            assert _read_solutions(split[start:], reader.K, reader.n, reader.count)


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

    def test_right_angle_walk(self):
        # K = 2 on the unit grid: every turn is a tie, a straight step puts
        # the point on its plane (bit 0), and a repeated point is flat
        walk = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 2), (0, 3), (1, 3),
                         (1, 2), (2, 2)], dtype=float)
        inst = Instance(2, len(walk), {}, walk[:2].tolist())
        normals = [hyperplane_through(walk[v - 2 : v]).normal for v in range(2, len(walk))]
        assert any(a @ b == 0.0 for a, b in zip(normals, normals[1:]))
        codes = recompute_codes(inst, walk[None])
        assert codes == recompute_codes_by_level(inst, walk[None])
        assert codes[0][5] == 0  # (0, 3) lies on the line through (0, 1) and (0, 2)
        flat = np.concatenate([walk[:3], walk[2:-1]])
        for decode in (recompute_codes, recompute_codes_by_level):
            with pytest.raises(DegenerateSpan):
                decode(inst, flat[None])
