import logging
from itertools import product

import numpy as np
import pytest

from dgbp.errors import InvalidInstance, NodeBudgetExceeded, TreeDiscarded
from dgbp.geometry import reflect
from dgbp.instance import Instance, counterexample, edge_violations
from dgbp.solver import (
    SolverOptions,
    branch_code,
    brute_force,
    parse_result,
    recompute_code,
    serialize_result,
    solve,
)


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

    def test_sibling_pairs_are_reflections(self, corpus):
        from dgbp.geometry import hyperplane_through

        for name in ("chain_k2_n5", "random_01", "random_06"):
            result = solve(corpus[name], SolverOptions(keep_tree=True))
            K = corpus[name].dimension
            checked = 0
            for level, nodes in result.tree.levels.items():
                if level <= K:
                    continue
                parents = {id(n.parent): n.parent for n in nodes}
                for parent in parents.values():
                    live = [c for c in parent.children if c.feasible]
                    if len(live) != 2:
                        continue
                    plane = hyperplane_through(_path_points(parent, K))
                    mirrored = reflect(plane, live[0].point)
                    assert np.max(np.abs(mirrored - live[1].point)) <= 1e-9
                    checked += 1
            assert checked > 0, name

    def test_sibling_sides_complementary(self, chain_k2_n5):
        result = solve(chain_k2_n5, SolverOptions(keep_tree=True))
        for nodes in result.tree.levels.values():
            parents = {}
            for node in nodes:
                parents.setdefault(id(node.parent), []).append(node)
            for group in parents.values():
                assert sorted(n.side for n in group) == [0, 1]

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


def _path_points(node, K):
    pts = []
    cur = node
    while cur is not None and cur.level >= 1 and len(pts) < K:
        pts.append(cur.point)
        cur = cur.parent
    pts.reverse()
    return np.asarray(pts)


class TestTangent:
    def test_tangent_extension_yields_single_child(self):
        # spheres around (0,0) and (2,0) with unit radii touch at (1,0)
        inst = Instance(
            2, 3,
            {(1, 2): 2.0, (1, 3): 1.0, (2, 3): 1.0},
            ((0.0, 0.0), (2.0, 0.0)),
        )
        result = solve(inst, SolverOptions(keep_tree=True))
        assert result.solution_count == 1
        assert result.stats.tangent_events == 1
        assert np.allclose(result.solutions[0][2], [1, 0], atol=1e-9)
        assert result.branch_codes == [(0, 0, 0)]
        level3 = result.tree.levels[3]
        assert sorted(n.side for n in level3) == [0, 1]
        assert [n.feasible for n in sorted(level3, key=lambda n: n.side)] == [True, False]


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
    def test_all_zero_path(self, chain_k2_n5):
        result = solve(chain_k2_n5, SolverOptions(keep_tree=True))
        idx = result.branch_codes.index((0, 0, 0, 0, 0))
        assert branch_code(result, idx) == (0, 0, 0, 0, 0)

    def test_level_five_sibling(self, chain_k2_n5):
        result = solve(chain_k2_n5, SolverOptions(keep_tree=True))
        idx = result.branch_codes.index((0, 0, 0, 0, 1))
        assert branch_code(result, idx) == (0, 0, 0, 0, 1)

    def test_first_k_bits_zero(self, corpus):
        result = solve(corpus["random_06"], SolverOptions(keep_tree=True))
        K = corpus["random_06"].dimension
        for i in range(result.solution_count):
            assert branch_code(result, i)[:K] == (0,) * K

    def test_tree_discarded(self, chain_k2_n5):
        result = solve(chain_k2_n5)
        with pytest.raises(TreeDiscarded):
            branch_code(result, 0)


class TestResultSerialization:
    def test_round_trip(self, corpus):
        inst = corpus["random_02"]
        result = solve(inst)
        text = serialize_result(result)
        loaded = parse_result(text)
        assert loaded.branch_codes == result.branch_codes
        assert loaded.stats.child_hist == result.stats.child_hist
        assert loaded.stats.tangent_events == result.stats.tangent_events
        for a, b in zip(loaded.solutions, result.solutions):
            assert np.array_equal(a, b)  # 17 digits round-trip exactly

    def test_infeasible_status(self, corpus):
        inst = corpus["random_03"]
        pruning = [(u, v) for (u, v) in inst.edges if v - u > inst.dimension]
        edges = dict(inst.edges)
        edges[pruning[0]] += 1.0
        result = solve(Instance(inst.dimension, inst.n, edges, inst.initial_embedding))
        assert "status: infeasible" in serialize_result(result)
