import errno
import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import fixture_path
from dgbp.cli import _plot_table, main
from dgbp.errors import ParseError
from dgbp.instance import Instance, parse_instance, random_instance, serialize_instance
from dgbp.solver import parse_result, solve
from writer import plot_table_by_row


def read(path):
    return path.read_text(encoding="utf-8")


def split_trailer(text: str):
    """Split a written file into (deterministic region, sha hex, wall time)."""
    lines = text.splitlines(keepends=True)
    sha = wall = None
    end = len(lines)
    for i, line in enumerate(lines):
        if line.startswith("# sha256: "):
            sha = line.split(": ", 1)[1].strip()
            end = i
        elif line.startswith("# wall_time_s: "):
            wall = float(line.split(": ", 1)[1])
    return "".join(lines[:end]), sha, wall


def region_of(path):
    return split_trailer(read(path))[0]


class TestGenerate:
    def test_counterexample_file(self, tmp_path):
        out = tmp_path / "ce2.txt"
        assert main(["generate", "--counterexample", "--k", "2", "--out", str(out)]) == 0
        inst = parse_instance(read(out))
        assert inst.n == 5 and len(inst.edges) == 8

    def test_random_writes_witness(self, tmp_path):
        out = tmp_path / "r.txt"
        wit = tmp_path / "r.witness.txt"
        rc = main(["generate", "--random", "--k", "3", "--n", "10", "--prune", "0.3",
                   "--seed", "7", "--out", str(out), "--witness-out", str(wit)])
        assert rc == 0
        assert out.exists() and wit.exists()
        assert "dgp-witness" in read(wit)

    def test_bad_dimension_is_usage_error(self, tmp_path):
        assert main(["generate", "--random", "--k", "0", "--n", "5",
                     "--out", str(tmp_path / "x.txt")]) == 3

    def test_unknown_flag_exits_3(self):
        assert main(["generate", "--nonsense"]) == 3


class TestValidate:
    def test_valid_fixture(self):
        assert main(["validate", str(fixture_path("counterexample_k2"))]) == 0

    def test_corrupted_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("dimension: 2\nn: 5\n")
        assert main(["validate", str(bad)]) == 3

    def test_semantically_broken_instance(self, tmp_path):
        text = read(fixture_path("counterexample_k2"))
        bad = tmp_path / "broken.txt"
        bad.write_text(text.replace("2 3 1\n", ""))
        assert main(["validate", str(bad)]) == 3


    @pytest.mark.parametrize("command, line", [
        ("validate", "MalformedInstance: vertex=None {}"),
        ("solve", "invalid instance: MalformedInstance(None): {}"),
    ])
    def test_absurd_n_is_one_line(self, tmp_path, capsys, command, line):
        path = tmp_path / "huge.txt"
        path.write_text("dimension: 2\nn: 3000000000\ninitial_embedding:\n0 0\n1 0\n"
                        "edges:\n1 2 1\n1 3 1\n2 3 1\n")
        assert main([command, str(path)]) == 3
        detail = "n = 3000000000 has 2999999998 vertices past dimension 2 but only 3 edges"
        assert capsys.readouterr().err == line.format(detail) + "\n"


class TestSolve:
    def test_counterexample_six_solutions(self, tmp_path):
        out = tmp_path / "res.txt"
        rc = main(["solve", str(fixture_path("counterexample_k2")), "--out", str(out)])
        assert rc == 0
        assert "solution_count: 6" in read(out)

    def test_chain_eight_solutions(self, tmp_path):
        out = tmp_path / "res.txt"
        rc = main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(out)])
        assert rc == 0
        assert "solution_count: 8" in read(out)

    def test_infeasible_exit_2(self, tmp_path):
        text = read(fixture_path("random_03"))
        inst = parse_instance(text)
        long_edge = next((u, v) for (u, v) in sorted(inst.edges) if v - u > 2)
        d = inst.edges[long_edge]
        broken = text.replace(f"{long_edge[0]} {long_edge[1]} {'%.17g' % d}",
                              f"{long_edge[0]} {long_edge[1]} {'%.17g' % (d + 1.0)}")
        assert broken != text
        path = tmp_path / "broken.txt"
        path.write_text(broken)
        out = tmp_path / "res.txt"
        assert main(["solve", str(path), "--out", str(out)]) == 2
        assert "status: infeasible" in read(out)

    def test_budget_exit_4(self, tmp_path):
        out = tmp_path / "res.txt"
        rc = main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(out),
                   "--max-nodes", "8"])
        assert rc == 4
        assert "status: budget-exceeded" in read(out)

    def test_deep_chain_exit_0(self, tmp_path, deep_chain):
        path = tmp_path / "deep.txt"
        path.write_text(serialize_instance(deep_chain))
        out = tmp_path / "res.txt"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert "solution_count: 2" in read(out)

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.txt")]) == 3

    def test_invalid_instance_exit_3(self, tmp_path, capsys):
        text = read(fixture_path("counterexample_k2")).replace("2 3 1\n", "")
        path = tmp_path / "broken.txt"
        path.write_text(text)
        assert main(["solve", str(path), "--out", str(tmp_path / "r.txt")]) == 3
        assert capsys.readouterr().err == (
            "invalid instance: TooFewPredecessors(3): vertex 3 has 1 adjacent predecessors, "
            "needs 2; MissingWindowEdge(3): missing window edge {2, 3}; MissingWindowEdge(4): "
            "missing window edge {2, 3} (anchors of 4)\n")

    def test_keep_tree_flag_is_usage_error(self, tmp_path):
        assert main(["solve", str(fixture_path("chain_k2_n5")), "--keep-tree",
                     "--out", str(tmp_path / "r.txt")]) == 3

    def test_plot_table(self, tmp_path):
        out = tmp_path / "res.txt"
        plot = tmp_path / "coords.tsv"
        main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(out),
              "--plot", str(plot)])
        lines = [l for l in region_of(plot).splitlines() if l and not l.startswith("#")]
        assert lines[0].split("\t") == ["solution", "vertex", "x1", "x2"]
        assert len(lines) == 1 + 8 * 5

    def test_plot_listed_in_both_manifests(self, tmp_path):
        out = tmp_path / "res.txt"
        plot = tmp_path / "coords.tsv"
        assert main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(out),
                     "--plot", str(plot)]) == 0
        for path in (out, plot):
            listed = [line.split(": ", 1)[1] for line in region_of(path).splitlines()
                      if line.startswith("# manifest output: ")]
            assert listed == [str(out), str(plot)], path

    def test_initial_embedding_checked_within_the_tolerances(self, tmp_path):
        # vertex 1 moved by 1e-7 misses edge {1, 2} by 7.4e-8: inside the
        # band atol = 1e-6, outside the default one
        inst = parse_instance(read(fixture_path("chain_k2_n5")))
        first, second = inst.initial_embedding
        moved = Instance(inst.dimension, inst.n, inst.edges,
                         ((first[0] + 1e-7, first[1]), second))
        path, out = tmp_path / "moved.txt", tmp_path / "res.txt"
        path.write_text(serialize_instance(moved))
        band = ["--atol", "1e-6", "--rtol", "0"]
        assert main(["solve", str(path), "--out", str(out), *band]) == 0
        assert "solution_count: 8" in read(out)
        assert main(["verify", str(path), str(out), "--oracle", *band]) == 0
        assert main(["solve", str(path), "--out", str(tmp_path / "default.txt")]) == 3


#: Tolerances and node budgets no band or budget can be made of, passed as
#: ``flag=value`` so that argparse reads "-1e-9" as a value, not an option.
BAD_LIMITS = [("--atol", "nan"), ("--atol", "inf"), ("--atol", "-1"), ("--rtol", "nan"),
              ("--rtol", "-1e-9"), ("--rtol", "-inf"), ("--max-nodes", "-5")]


class TestBadLimits:
    """An unusable tolerance or node budget is a usage error: exit 3, one line."""

    @pytest.mark.parametrize("flag,value", BAD_LIMITS)
    def test_solve(self, tmp_path, capsys, flag, value):
        out = tmp_path / "res.txt"
        assert main(["solve", str(fixture_path("random_03")), "--out", str(out),
                     f"{flag}={value}"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{flag} must be ")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [bad for bad in BAD_LIMITS if bad[0] != "--max-nodes"])
    def test_verify(self, tmp_path, capsys, flag, value):
        inst, res = str(fixture_path("random_03")), str(tmp_path / "res.txt")
        assert main(["solve", inst, "--out", res]) == 0
        capsys.readouterr()
        assert main(["verify", inst, res, "--oracle", f"{flag}={value}"]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{flag} must be ")

    def test_zero_is_a_limit(self, tmp_path):
        out = str(tmp_path / "res.txt")
        args = ["solve", str(fixture_path("random_03")), "--out", out]
        assert main([*args, "--atol", "0", "--rtol", "0", "--max-nodes", "0"]) == 4


class TestAnalyze:
    def test_chain_exit_0(self, tmp_path):
        res = tmp_path / "res.txt"
        rep = tmp_path / "rep.txt"
        main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(res)])
        assert main(["analyze", str(res), "--out", str(rep)]) == 0
        text = read(rep)
        assert "group_order: 8" in text and "orbit_verified: true" in text

    def test_counterexample_exit_5(self, tmp_path):
        res = tmp_path / "res.txt"
        rep = tmp_path / "rep.txt"
        main(["solve", str(fixture_path("counterexample_k2")), "--out", str(res)])
        assert main(["analyze", str(res), "--out", str(rep)]) == 5
        assert "power_of_two: false" in read(rep)

    def test_random_exit_0(self, tmp_path):
        res = tmp_path / "res.txt"
        main(["solve", str(fixture_path("random_09")), "--out", str(res)])
        assert main(["analyze", str(res), "--out", str(tmp_path / "rep.txt")]) == 0

    def test_crlf_result_reads_as_lf(self, tmp_path):
        # the same result with CRLF line ends gives the same report and exit
        res, crlf = tmp_path / "res.txt", tmp_path / "crlf.txt"
        main(["solve", str(fixture_path("counterexample_k2")), "--out", str(res)])
        crlf.write_bytes(res.read_bytes().replace(b"\n", b"\r\n"))
        reports = []
        for path in (res, crlf):
            rep = tmp_path / f"{path.stem}.symmetry.txt"
            assert main(["analyze", str(path), "--out", str(rep)]) == 5
            reports.append([line for line in read(rep).splitlines()
                            if not line.startswith("#")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name, status", [("counterexample_k2", 5), ("random_09", 0)])
    def test_non_ascii_path_reads_in_bulk(self, tmp_path, monkeypatch, capsys, name, status):
        # a manifest that names a non-ASCII path is ordinary text: analyze and
        # verify give the ASCII run's report and exits, read in bulk alone
        def line_loop(*args):
            raise AssertionError("the result was read line by line")

        outcomes = []
        for stem in ("ascii", "donn\u00e9es"):
            inst = tmp_path / f"{stem}.txt"
            inst.write_bytes(fixture_path(name).read_bytes())
            assert main(["solve", str(inst)]) == 0
            res = tmp_path / f"{stem}.result.txt"
            assert f"# manifest input: {inst}\n" in read(res)
            with monkeypatch.context() as patch:
                patch.setattr("dgbp.solver._read_solution_lines", line_loop)
                capsys.readouterr()
                codes = (main(["analyze", str(res)]),
                         main(["verify", str(inst), str(res), "--oracle"]))
            report = [line for line in read(tmp_path / f"{stem}.result.symmetry.txt")
                      .splitlines() if not line.startswith("#")]
            outcomes.append((codes, report, capsys.readouterr().err.splitlines()[1:]))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == (status, 0) and outcomes[0][2] == ["verification passed"]

    def test_one_solution_missing_exit_6(self, tmp_path, capsys):
        # a generic result less one solution: not one orbit, and not degenerate
        res = tmp_path / "res.txt"
        main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(res)])
        lines = read(res).splitlines(keepends=True)
        last = max(i for i, line in enumerate(lines) if line.startswith("code "))
        del lines[last : last + 6]
        lines[lines.index("solution_count: 8\n")] = "solution_count: 7\n"
        res.write_text("".join(lines))
        capsys.readouterr()
        assert main(["analyze", str(res), "--out", str(tmp_path / "rep.txt")]) == 6
        assert capsys.readouterr().err.endswith(
            "|X|=7 group_order=4 orbit_verified=False power_of_two=False degenerate=False\n")

    def test_infeasible_result_exit_3(self, tmp_path):
        text = read(fixture_path("random_03"))
        inst = parse_instance(text)
        long_edge = next((u, v) for (u, v) in sorted(inst.edges) if v - u > 2)
        d = inst.edges[long_edge]
        broken = text.replace(f"{long_edge[0]} {long_edge[1]} {'%.17g' % d}",
                              f"{long_edge[0]} {long_edge[1]} {'%.17g' % (d + 1.0)}")
        path = tmp_path / "broken.txt"
        path.write_text(broken)
        res = tmp_path / "res.txt"
        main(["solve", str(path), "--out", str(res)])
        assert main(["analyze", str(res), "--out", str(tmp_path / "rep.txt")]) == 3


class TestVerify:
    def test_solved_result_passes(self, tmp_path):
        res = tmp_path / "res.txt"
        inst = fixture_path("counterexample_k2")
        main(["solve", str(inst), "--out", str(res)])
        assert main(["verify", str(inst), str(res)]) == 0

    def test_oracle_flag(self, tmp_path):
        res = tmp_path / "res.txt"
        inst = fixture_path("random_07")
        main(["solve", str(inst), "--out", str(res)])
        assert main(["verify", str(inst), str(res), "--oracle"]) == 0

    def test_oracle_beyond_the_exhaustive_budget_exit_4(self, tmp_path, capsys):
        # n - K = 26 levels is over brute_force's cap; the instance has 2 solutions
        inst, res = tmp_path / "r27.txt", tmp_path / "res.txt"
        main(["generate", "--random", "--k", "1", "--n", "27", "--prune", "1", "--seed", "0",
              "--out", str(inst)])
        main(["solve", str(inst), "--out", str(res)])
        assert "solution_count: 2\n" in read(res)
        capsys.readouterr()
        assert main(["verify", str(inst), str(res), "--oracle"]) == 4
        assert capsys.readouterr().err == "oracle comparison beyond the exhaustive budget\n"

    def test_tampered_coordinate_exit_6(self, tmp_path, capsys):
        res = tmp_path / "res.txt"
        inst = fixture_path("chain_k2_n5")
        main(["solve", str(inst), "--out", str(res)])
        text = read(res)
        lines = text.splitlines(keepends=True)
        for i, line in enumerate(lines):
            if lines[i - 1].startswith("code ") and not line.startswith("#"):
                first = float(line.split()[0])
                lines[i] = line.replace(line.split()[0], "%.17g" % (first + 0.1), 1)
                break
        tampered = tmp_path / "tampered.txt"
        tampered.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(inst), str(tampered)]) == 6
        failures = capsys.readouterr().err.splitlines()
        assert [line.split(" off by ")[0] for line in failures[:-1]] == [
            "solution 0: edge {1, 2}", "solution 0: edge {1, 3}"]

    def test_duplicate_codes_exit_6(self, tmp_path, capsys):
        res = tmp_path / "res.txt"
        inst = fixture_path("chain_k2_n5")
        main(["solve", str(inst), "--out", str(res)])
        lines = read(res).splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.startswith("code "))
        lines[first:first] = lines[first : first + 6]  # solution 0 twice
        lines[lines.index("solution_count: 8\n")] = "solution_count: 9\n"
        res.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(inst), str(res), "--oracle"]) == 6
        assert capsys.readouterr().err == (
            "duplicate branch codes in result\nverification FAILED (1 problem(s))\n")

    def test_bad_header_sizes_exit_3(self, tmp_path, capsys):
        res = tmp_path / "res.txt"
        res.write_text("format: dgp-result 1\ndimension: -1\nn: -7\nsolution_count: 0\n"
                       "solutions:\n")
        assert main(["verify", str(fixture_path("random_03")), str(res)]) == 3
        assert capsys.readouterr().err == (
            "parse error: line 2: dimension must be >= 1, got -1\n")

    def test_absurd_n_is_one_line(self, tmp_path, capsys):
        # an empty result that fits the instance: the instance's size check
        # runs before any table is sized by n
        inst, res = tmp_path / "huge.txt", tmp_path / "res.txt"
        inst.write_text("dimension: 2\nn: 3000000000\ninitial_embedding:\n0 0\n1 0\n"
                        "edges:\n1 2 1\n1 3 1\n2 3 1\n")
        res.write_text("format: dgp-result 1\ndimension: 2\nn: 3000000000\n"
                       "solution_count: 0\nsolutions:\n")
        assert main(["verify", str(inst), str(res)]) == 3
        assert capsys.readouterr().err == (
            "invalid instance: MalformedInstance(None): n = 3000000000 has 2999999998 "
            "vertices past dimension 2 but only 3 edges\n")

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_size_no_array_holds_exit_3(self, tmp_path, capsys, command):
        res = tmp_path / "res.txt"
        res.write_text("format: dgp-result 1\ndimension: 2\nn: 100000000000000000000\n"
                       "solution_count: 0\nsolutions:\n")
        inst = [str(fixture_path("random_03"))] if command == "verify" else []
        assert main([command, *inst, str(res)]) == 3
        assert capsys.readouterr().err == (
            "parse error: line 3: n must be <= 576460752303423487, "
            "got 100000000000000000000\n")

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_empty_result_of_other_shape_exit_6(self, tmp_path, capsys, oracle):
        # random_03 has K=2, n=8: a result with no solutions is still sized
        res = tmp_path / "res.txt"
        res.write_text("format: dgp-result 1\ndimension: 2\nn: 5\nsolution_count: 0\n"
                       "solutions:\n")
        assert main(["verify", str(fixture_path("random_03")), str(res), *oracle]) == 6
        assert capsys.readouterr().err == (
            "result is for n=5, K=2; instance has n=8, K=2\n")


class TestBudgetLimitedResult:
    """A result the node budget cut short is reported as such: analyze and verify exit 4."""

    ANALYZE = "status: budget-exceeded; the report covers only the solutions found\n"
    VERIFY = "status: budget-exceeded; the solutions listed pass, but the search found only some\n"

    @staticmethod
    def truncated(tmp_path, n, max_nodes):
        inst, res = tmp_path / "inst.txt", tmp_path / "res.txt"
        main(["generate", "--random", "--k", "2", "--n", str(n), "--seed", "3",
              "--out", str(inst)])
        assert main(["solve", str(inst), "--out", str(res), "--max-nodes", str(max_nodes)]) == 4
        assert "status: budget-exceeded\n" in read(res)
        return inst, res

    @pytest.fixture
    def half(self, tmp_path):
        # 2,048 of the instance's 4,096 solutions: one orbit, but not all of them
        inst, res = self.truncated(tmp_path, 14, 7000)
        assert "solution_count: 2048\n" in read(res)
        return inst, res

    def test_analyze_exit_4(self, tmp_path, capsys, half):
        rep = tmp_path / "rep.txt"
        capsys.readouterr()
        assert main(["analyze", str(half[1]), "--out", str(rep)]) == 4
        err = capsys.readouterr().err.splitlines(keepends=True)
        assert len(err) == 2 and err[1] == self.ANALYZE
        assert "orbit_verified: true" in read(rep)

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_verify_exit_4(self, capsys, half, oracle):
        capsys.readouterr()
        assert main(["verify", *map(str, half), *oracle]) == 4
        assert capsys.readouterr().err == self.VERIFY

    def test_verify_bad_edge_exit_6(self, tmp_path, capsys, half):
        inst, res = half
        lines = read(res).splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith("code ")) + 1
        lines[at] = "%.17g %s\n" % (float(lines[at].split()[0]) + 0.1, lines[at].split()[1])
        res.write_text("".join(lines))
        capsys.readouterr()
        assert main(["verify", str(inst), str(res)]) == 6
        assert capsys.readouterr().err.endswith(" problem(s))\n")

    def test_no_solutions(self, tmp_path, capsys):
        # 1,024 solutions, none found within the budget: nothing to analyze
        inst, res = self.truncated(tmp_path, 12, 2000)
        assert "solution_count: 0\n" in read(res)
        capsys.readouterr()
        assert main(["analyze", str(res), "--out", str(tmp_path / "rep.txt")]) == 3
        assert main(["verify", str(inst), str(res)]) == 4
        assert capsys.readouterr().err == (
            "nothing to analyze: result has no solutions\n" + self.VERIFY)


class TestPlotTable:
    """The bulk ``--plot`` table against the per-coordinate reference."""

    @pytest.mark.parametrize("K, n", [(1, 6), (2, 9), (3, 9), (4, 10)])
    def test_matches_row_writer(self, K, n):
        stack = solve(random_instance(K, n, 0.1, K)[0]).solutions
        assert len(stack)
        assert _plot_table(stack) == plot_table_by_row(stack, K)

    def test_full_tree(self):
        stack = solve(random_instance(2, 16, 0.0, 1)[0]).solutions
        assert stack.shape == (2 ** 14, 16, 2)
        assert _plot_table(stack) == plot_table_by_row(stack, 2)

    def test_no_solutions_and_special_values(self):
        empty = np.empty((0, 5, 3))
        assert _plot_table(empty) == plot_table_by_row(empty, 3)
        # rows equal to the row above except in their bits are formatted anew
        row = [[-0.0, np.nan], [np.inf, 1e-300], [-5e-324, 2.0 ** 60]]
        odd = np.array([row, np.negative(row), row, row])
        assert _plot_table(odd) == plot_table_by_row(odd, 2)


def first_solution(edit):
    """Damage: ``edit`` rewrites the first code line and the row after it."""
    def damage(lines):
        at = next(i for i, line in enumerate(lines) if line.startswith("code "))
        lines[at : at + 2] = edit(lines[at], lines[at + 1])
    return damage


def header_line(prefix, new):
    """Damage: the first line starting with ``prefix`` becomes ``new``."""
    def damage(lines):
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[at] = new + "\n"
    return damage


class TestMalformedResult:
    """A damaged result file is invalid input (exit 3) to analyze and verify."""

    @staticmethod
    def damaged(tmp_path, damage):
        res = tmp_path / "res.txt"
        main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(res)])
        lines = read(res).splitlines(keepends=True)
        damage(lines)
        path = tmp_path / "damaged.txt"
        path.write_text("".join(lines))
        return path

    @pytest.mark.parametrize("damage", [
        first_solution(lambda code, row: [code, "nan " + row.split()[1] + "\n"]),
        first_solution(lambda code, row: ["code 0000\n", row]),
        first_solution(lambda code, row: [code, "x1 " + row.split()[1] + "\n"]),
        header_line("n: ", "n: five"),
        header_line("1 0 1 0", "1 0 x 0"),
        header_line("max_window_residual: ", "max_window_residual: abc"),
    ], ids=["nan", "short-code", "not-a-number", "header-int", "hist-row", "header-float"])
    def test_exit_3_without_traceback(self, tmp_path, capsys, damage):
        path = self.damaged(tmp_path, damage)
        capsys.readouterr()
        assert main(["analyze", str(path), "--out", str(tmp_path / "rep.txt")]) == 3
        assert main(["verify", str(fixture_path("chain_k2_n5")), str(path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("parse error: line ") for line in err)


#: What a mutation may put into a file: digits, signs, separators, markers,
#: letters of field names and of nan/inf, line ends and blanks that only
#: some readers take as such, and characters beyond ASCII.
MUTATION_ALPHABET = "0123456789.-+e :#\n\r\t\x0bnaifx\u00e9\x85\u00a0\u2028"

#: Every exit code the CLI documents.
EXIT_CODES = {0, 2, 3, 4, 5, 6}


def mutated(data, text):
    """``text`` with 1-4 characters replaced, inserted or deleted."""
    chars = list(text)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(chars) - 1))
        edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "delete":
            del chars[at]
            continue
        char = data.draw(st.sampled_from(MUTATION_ALPHABET))
        if edit == "replace":
            chars[at] = char
        else:
            chars.insert(at, char)
    return "".join(chars)


def parses(parse, text):
    """A clean parse, or a ParseError; any other exception propagates."""
    try:
        parse(text)
    except ParseError:
        return False
    return True


class TestMutationFuzz:
    """Mutated instance and result files give a clean parse, a ParseError or
    a documented exit code, never a traceback."""

    @pytest.fixture(scope="class")
    def originals(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("fuzz")
        instance = fixture_path("random_05")
        assert main(["solve", str(instance), "--out", str(work / "result.txt")]) == 0
        return work, read(instance), read(work / "result.txt")

    @given(data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_no_traceback(self, originals, data):
        work, instance_text, result_text = originals
        which = data.draw(st.sampled_from(("instance", "result", "both")))
        if which != "result":
            instance_text = mutated(data, instance_text)
        if which != "instance":
            result_text = mutated(data, result_text)
        parses(parse_instance, instance_text)
        parses(parse_result, result_text)
        instance, result = work / "instance.txt", work / "mutated.result.txt"
        for path, text in ((instance, instance_text), (result, result_text)):
            # a new file each time: truncating the old one can force a flush
            path.unlink(missing_ok=True)
            path.write_text(text, encoding="utf-8")
        for argv in (["solve", str(instance), "--out", str(work / "solved.txt")],
                     ["analyze", str(result), "--out", str(work / "report.txt")],
                     ["verify", str(instance), str(result), "--oracle"]):
            assert main(argv) in EXIT_CODES, argv


class TestDeterminism:
    def test_identical_commands_byte_identical_region(self, tmp_path):
        inst = fixture_path("random_05")
        out = tmp_path / "a.txt"
        cmd = ["solve", str(inst), "--out", str(out)]
        main(cmd)
        first = read(out)
        main(cmd)
        second = read(out)
        assert first.splitlines()[:-1] == second.splitlines()[:-1]
        r1, s1, w1 = split_trailer(first)
        r2, s2, w2 = split_trailer(second)
        assert r1 == r2 and s1 == s2
        assert w1 is not None and w2 is not None

    def test_sha_matches_region(self, tmp_path):
        out = tmp_path / "a.txt"
        main(["solve", str(fixture_path("random_01")), "--out", str(out)])
        region, sha, _ = split_trailer(read(out))
        assert hashlib.sha256(region.encode()).hexdigest() == sha


def without_wall_time(text):
    """Everything but the final ``# wall_time_s:`` line, which must be there."""
    head, last = text.rstrip("\n").rsplit("\n", 1)
    assert last.startswith("# wall_time_s: ") and text.endswith(last + "\n")
    return head


class TestOverwriteInPlace:
    """Outputs are written over the old file's bytes, then cut to length."""

    @staticmethod
    def solve_to(out):
        return main(["solve", str(fixture_path("chain_k2_n5")), "--out", str(out)])

    def test_shorter_output_leaves_no_stale_tail(self, tmp_path):
        out = tmp_path / "res.txt"
        assert self.solve_to(out) == 0
        fresh = read(out)
        out.write_text("stale line\n" * 10 * len(fresh))
        assert self.solve_to(out) == 0
        assert without_wall_time(read(out)) == without_wall_time(fresh)

    def test_symlink_is_kept_and_followed(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("old\n" * 10_000)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        assert self.solve_to(link) == 0
        assert link.is_symlink()
        text = read(target)
        region, sha, _ = split_trailer(text)
        assert "solution_count: 8" in region and "old\n" not in text
        assert hashlib.sha256(region.encode()).hexdigest() == sha

    def test_hard_link_sees_new_bytes(self, tmp_path):
        out = tmp_path / "res.txt"
        out.write_text("old\n" * 10_000)
        other = tmp_path / "other.txt"
        os.link(out, other)
        assert self.solve_to(out) == 0
        assert out.stat().st_ino == other.stat().st_ino
        assert read(other) == read(out) and "solution_count: 8" in read(other)

    def test_dev_null(self):
        assert main(["solve", str(fixture_path("chain_k2_n5")), "--out", os.devnull,
                     "--plot", os.devnull]) == 0

    def test_new_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "res.txt"
        old = os.umask(0o027)
        try:
            assert self.solve_to(out) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o666 & ~0o027

    def test_failed_write_leaves_empty_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "res.txt"
        assert self.solve_to(out) == 0
        out.write_text(read(out) * 3)
        ino = out.stat().st_ino
        real_write = os.write
        writes = []

        def flaky(fd, data):
            """Write half of the first chunk to ``out``, then fail."""
            if os.fstat(fd).st_ino != ino:
                return real_write(fd, data)
            writes.append(len(data))
            if len(writes) > 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_write(fd, data[: len(data) // 2])

        monkeypatch.setattr(os, "write", flaky)
        capsys.readouterr()
        assert self.solve_to(out) == 3
        monkeypatch.undo()
        assert len(writes) == 2
        assert out.stat().st_size == 0
        assert capsys.readouterr().err == (
            f"cannot write {out}: {os.strerror(errno.ENOSPC)}\n")


class TestFileErrors:
    """A file that cannot be read or written is exit 3 with one line, not a traceback."""

    @staticmethod
    def run(capsys, argv):
        capsys.readouterr()
        rc = main(argv)
        return rc, capsys.readouterr().err

    def test_missing_input(self, tmp_path, capsys):
        path = tmp_path / "nope.txt"
        assert self.run(capsys, ["solve", str(path)]) == (
            3, f"cannot read {path}: No such file or directory\n")

    def test_output_is_a_directory(self, tmp_path, capsys):
        rc, err = self.run(capsys, ["solve", str(fixture_path("chain_k2_n5")),
                                    "--out", str(tmp_path)])
        assert (rc, err) == (3, f"cannot write {tmp_path}: Is a directory\n")

    def test_output_directory_missing(self, tmp_path, capsys):
        out = tmp_path / "nope" / "r.txt"
        rc, err = self.run(capsys, ["solve", str(fixture_path("chain_k2_n5")),
                                    "--out", str(out)])
        assert (rc, err) == (3, f"cannot write {out}: No such file or directory\n")

    def test_input_is_a_directory(self, tmp_path, capsys):
        rc, err = self.run(capsys, ["analyze", str(tmp_path),
                                    "--out", str(tmp_path / "rep.txt")])
        assert (rc, err) == (3, f"cannot read {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("cmd", ["validate", "analyze"])
    def test_non_utf8_input(self, tmp_path, capsys, cmd):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"format: dgp-instance 1\ndimension: 2\nn: \xff5\n")
        rc, err = self.run(capsys, [cmd, str(path)])
        assert (rc, err) == (3, "parse error: line 3: not UTF-8 text (byte 0xff)\n")


class TestOutOfMemory:
    """An allocation beyond the address space is exit 3 with one line, not a traceback."""

    def test_generate_beyond_address_space(self, tmp_path):
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000, 2_000_000_000))

        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "dgbp.cli", "generate", "--random", "--k", "3",
             "--n", "3000000000", "--out", "g.txt"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_address_space)
        assert proc.returncode == 3
        assert proc.stderr.startswith("out of memory: Unable to allocate")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not (tmp_path / "g.txt").exists()


class TestPipelineClosure:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generate_solve_analyze_verify(self, tmp_path, seed):
        inst = tmp_path / "inst.txt"
        res = tmp_path / "res.txt"
        rep = tmp_path / "rep.txt"
        assert main(["generate", "--random", "--k", "2", "--n", "8", "--prune", "0.3",
                     "--seed", str(seed), "--out", str(inst)]) == 0
        assert main(["validate", str(inst)]) == 0
        assert main(["solve", str(inst), "--out", str(res)]) == 0
        assert main(["analyze", str(res), "--out", str(rep)]) == 0
        assert main(["verify", str(inst), str(res), "--oracle"]) == 0
