import hashlib

import pytest

from corpus import fixture_path
from dgbp.cli import main, split_trailer
from dgbp.instance import parse_instance, serialize_instance


def read(path):
    return path.read_text(encoding="utf-8")


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


class TestDeterminism:
    def test_identical_commands_byte_identical_region(self, tmp_path):
        inst = fixture_path("random_05")
        out = tmp_path / "a.txt"
        cmd = ["solve", str(inst), "--out", str(out)]
        main(cmd)
        first = read(out)
        main(cmd)
        second = read(out)
        r1, s1, w1 = split_trailer(first)
        r2, s2, w2 = split_trailer(second)
        assert r1 == r2 and s1 == s2
        assert w1 is not None and w2 is not None

    def test_sha_matches_region(self, tmp_path):
        out = tmp_path / "a.txt"
        main(["solve", str(fixture_path("random_01")), "--out", str(out)])
        region, sha, _ = split_trailer(read(out))
        assert hashlib.sha256(region.encode()).hexdigest() == sha


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
