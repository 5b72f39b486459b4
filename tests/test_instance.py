import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corpus import CHAIN_PARAMS, RANDOM_PARAMS, fixture_path
from dgbp.errors import InvalidInstance, ParseError
from dgbp.instance import (
    Instance,
    Violation,
    ViolationCode,
    _line_index,
    counterexample,
    edge_violations,
    parse_instance,
    random_instance,
    regular_simplex,
    serialize_instance,
    stacked_edge_violations,
    validate,
)
from dgbp.solver import solve
from reader import split_lines
from validator import validate_by_vertex


class TestCounterexample:
    def test_k2_structure(self):
        inst = counterexample(2)
        assert inst.n == 5 and inst.dimension == 2
        want = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (2, 4), (3, 5), (1, 5)}
        assert set(inst.edges) == want
        assert all(d == 1.0 for d in inst.edges.values())

    def test_k1_structure(self):
        inst = counterexample(1)
        assert inst.n == 4
        assert set(inst.edges) == {(1, 2), (2, 3), (3, 4), (1, 4)}

    def test_k3_last_vertex_neighbourhood(self):
        inst = counterexample(3)
        assert inst.n == 6
        assert set(inst.predecessors(6)) == {1, 3, 4, 5}

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_validates_cleanly(self, K):
        assert validate(counterexample(K)).ok

    def test_k2_satisfies_window_conditions_by_hand(self):
        # independent re-derivation of the window conditions for K=2
        inst = counterexample(2)
        for v in range(3, 6):
            preds = [u for u in range(1, v) if (min(u, v), max(u, v)) in inst.edges]
            assert len(preds) >= 2
            u1, u2 = v - 2, v - 1
            assert (u1, v) in inst.edges and (u2, v) in inst.edges
            assert (u1, u2) in inst.edges
            assert inst.edges[(u1, u2)] > 0  # 1-simplex volume is the length
        pts = inst.initial_points()
        assert np.linalg.norm(pts[0] - pts[1]) == pytest.approx(1.0, abs=1e-12)

    def test_regular_simplex_has_unit_edges(self):
        for K in (1, 2, 3, 4, 5):
            verts = regular_simplex(K)
            for i in range(K + 1):
                for j in range(i + 1, K + 1):
                    d = np.linalg.norm(verts[i] - verts[j])
                    assert d == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(regular_simplex(2)[2], [0.5, math.sqrt(3) / 2])

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            counterexample(0)


class TestValidate:
    def test_missing_window_edge(self):
        inst = counterexample(2)
        edges = dict(inst.edges)
        del edges[(2, 3)]
        broken = Instance(2, 5, edges, inst.initial_embedding)
        report = validate(broken)
        missing = [v.vertex for v in report.violations
                   if v.code is ViolationCode.MISSING_WINDOW_EDGE]
        assert 3 in missing
        # clique of vertex 4's window is broken too
        assert 4 in missing

    def test_nonpositive_distance(self):
        inst = counterexample(2)
        edges = dict(inst.edges)
        edges[(1, 2)] = 0.0
        report = validate(Instance(2, 5, edges, inst.initial_embedding))
        assert ViolationCode.NONPOSITIVE_DISTANCE in {v.code for v in report.violations}

    def test_too_few_predecessors(self):
        inst = counterexample(2)
        edges = {k: v for k, v in inst.edges.items() if k != (1, 3)}
        report = validate(Instance(2, 5, edges, inst.initial_embedding))
        assert any(v.code is ViolationCode.TOO_FEW_PREDECESSORS and v.vertex == 3
                   for v in report.violations)

    def test_invalid_initial_embedding(self):
        inst = counterexample(2)
        report = validate(Instance(2, 5, dict(inst.edges), ((0.0, 0.0), (1.5, 0.0))))
        assert ViolationCode.INVALID_INITIAL_EMBEDDING in {v.code for v in report.violations}

    def test_degenerate_window_simplex(self):
        # collinear window distances for vertex 5 of the K=3 family
        inst = counterexample(3)
        edges = dict(inst.edges)
        edges[(2, 4)] = 2.0
        report = validate(Instance(3, 6, edges, inst.initial_embedding))
        assert any(v.code is ViolationCode.DEGENERATE_SIMPLEX and v.vertex == 5
                   for v in report.violations)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_window_distance_is_reported_not_raised(self, bad):
        # d(2, 3) is in the clique of vertex 3 and of vertex 4; neither gets a
        # Cayley-Menger test, so the one violation is the distance itself.
        edges = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): bad, (2, 4): 1.0, (3, 4): 1.0}
        inst = Instance(2, 4, edges, ((0.0, 0.0), (1.0, 0.0)))
        report = validate(inst)
        assert report.violations == (Violation(
            ViolationCode.NONPOSITIVE_DISTANCE, None, f"edge {{2, 3}} has distance {bad!r}"),)
        with pytest.raises(InvalidInstance) as err:
            solve(inst)
        assert err.value.report == report

    def test_malformed_shape(self):
        report = validate(Instance(2, 1, {}, ((0.0, 0.0), (1.0, 0.0))))
        assert ViolationCode.MALFORMED_INSTANCE in {v.code for v in report.violations}


_CE2 = counterexample(2)

#: Direct-built K=2 instances that no instance file can give: (n, edges, verdict).
MALFORMED = {
    "n=0": (0, {(1, 2): 1.0, (2, 3): -1.0},
            "MalformedInstance(None): n = 0 < dimension 2; "
            "MalformedInstance(None): edge {1, 2} out of range; "
            "MalformedInstance(None): edge {2, 3} out of range; "
            "NonpositiveDistance(None): edge {2, 3} has distance -1.0"),
    "n=-1": (-1, {(1, 2): 1.0, (2, 3): -1.0},
             "MalformedInstance(None): n = -1 < dimension 2; "
             "MalformedInstance(None): edge {1, 2} out of range; "
             "MalformedInstance(None): edge {2, 3} out of range; "
             "NonpositiveDistance(None): edge {2, 3} has distance -1.0"),
    "self-loop": (5, {**_CE2.edges, (3, 3): 1.0},
                  "MalformedInstance(None): edge {3, 3} out of range"),
    "u<=0": (5, {**_CE2.edges, (0, 4): 1.0, (-2, 1): 1.0},
             "MalformedInstance(None): edge {-2, 1} out of range; "
             "MalformedInstance(None): edge {0, 4} out of range"),
    "v>n": (5, {**_CE2.edges, (2, 7): 1.0},
            "MalformedInstance(None): edge {2, 7} out of range"),
    "nan": (5, {**_CE2.edges, (1, 4): math.nan},
            "NonpositiveDistance(None): edge {1, 4} has distance nan"),
    "inf": (5, {**_CE2.edges, (3, 4): math.inf},
            "NonpositiveDistance(None): edge {3, 4} has distance inf"),
    "zero": (5, {**_CE2.edges, (1, 4): 0.0},
             "NonpositiveDistance(None): edge {1, 4} has distance 0.0"),
    "negative": (5, {**_CE2.edges, (2, 3): -1.0},
                 "NonpositiveDistance(None): edge {2, 3} has distance -1.0"),
}


@pytest.mark.parametrize("name", MALFORMED)
class TestMalformedDirectBuilt:
    """The edge index of an instance built in the library, not parsed."""

    def instance(self, name):
        n, edges, _ = MALFORMED[name]
        return Instance(2, n, edges, _CE2.initial_embedding)

    def test_validate_reports_not_raises(self, name):
        assert validate(self.instance(name)).summary() == MALFORMED[name][2]

    def test_predecessors_match_a_scan_of_the_edges(self, name):
        inst = self.instance(name)
        for v in range(1, inst.n + 1):
            got = inst.predecessors(v)
            assert got == sorted(u for u, w in inst.edges if w == v and 1 <= u < v)
            assert all(type(u) is int for u in got)

    def test_edge_violations_have_int_ends(self, name):
        inst = self.instance(name)
        # Rows for every end up to 7; ends 0 and -2 index from the back.
        stack = np.random.default_rng(0).random((2, 8, 2))
        found = [edge for row in stacked_edge_violations(inst, stack) for edge, _ in row]
        assert found and set(found) <= set(inst.edges)
        assert all(type(end) is int for edge in found for end in edge)


class TestOutOfScale:
    """Instances whose size or ends no index can hold are reported, not raised."""

    TEXT = "dimension: 2\nn: {n}\ninitial_embedding:\n0 0\n1 0\nedges:\n1 2 1\n1 3 1\n2 3 1\n"

    @pytest.mark.parametrize("n", [3_000_000_000, 10**20])
    def test_more_vertices_past_k_than_edges(self, n):
        report = validate(parse_instance(self.TEXT.format(n=n)))
        assert report.summary() == (
            f"MalformedInstance(None): n = {n} has {n - 2} vertices past dimension 2 "
            "but only 3 edges")

    def test_n_minus_k_edges_are_checked_in_full(self):
        # A chain of n - K = 3 edges passes the size guard and fails as before.
        inst = Instance(2, 5, {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0},
                        _CE2.initial_embedding)
        assert validate(inst) == validate_by_vertex(inst)
        assert ViolationCode.MISSING_WINDOW_EDGE in {v.code for v in validate(inst).violations}

    def test_edge_end_beyond_int64(self):
        inst = Instance(2, 5, {**_CE2.edges, (1, 2**70): 1.0}, _CE2.initial_embedding)
        assert validate(inst).summary() == (
            "MalformedInstance(None): edge {1, 1180591620717411303424} out of range")
        assert [inst.predecessors(v) for v in range(1, 6)] == [[], [1], [1, 2], [2, 3], [1, 3, 4]]


def _mutations(inst, seed):
    """Six copies of ``inst``, each with two edges dropped or given a bad distance."""
    rng = np.random.default_rng(seed)
    keys = sorted(inst.edges)
    for change in ("drop", "drop", math.nan, 0.0, -1.0, "triple"):
        edges = dict(inst.edges)
        for j in rng.choice(len(keys), size=2, replace=False).tolist():
            if change == "drop":
                del edges[keys[j]]
            else:
                edges[keys[j]] = 3.0 * edges[keys[j]] if change == "triple" else change
        yield Instance(inst.dimension, inst.n, edges, inst.initial_embedding)


def _same_as_by_vertex(inst):
    """``validate(inst)``, checked against the reference or, below n - K edges, the size guard."""
    report = validate(inst)
    K, n, m = inst.dimension, inst.n, len(inst.edges)
    if m < n - K:
        assert report.summary() == (f"MalformedInstance(None): n = {n} has {n - K} "
                                    f"vertices past dimension {K} but only {m} edges")
    else:
        assert report.violations == validate_by_vertex(inst).violations
    return report


class TestValidateByVertex:
    """``validate`` against the per-vertex loop of ``tests/validator.py``."""

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_grid_and_mutations(self, K):
        invalid = 0
        for n in (8, 14, 20):
            for p in (0.0, 0.1, 0.3):
                for seed in range(4):
                    inst, _ = random_instance(K, n, p, seed)
                    for case in (inst, *_mutations(inst, seed)):
                        invalid += not _same_as_by_vertex(case).ok
        assert invalid >= 36 * 4  # most mutations break something

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_counterexample_and_mutations(self, K):
        inst = counterexample(K)
        for case in (inst, *_mutations(inst, K)):
            _same_as_by_vertex(case)

    def test_every_window_verdict_in_vertex_order(self):
        inst, _ = random_instance(3, 14, 0.0, 0)
        edges = dict(inst.edges)
        del edges[(3, 5)]  # vertex 5 loses a predecessor; {3, 5} anchors vertex 6
        del edges[(8, 9)]
        edges[(1, 9)] = 1.0  # vertex 9 keeps three predecessors
        edges[(11, 12)] = math.nan  # reported once, as a distance
        edges[(5, 7)] = edges[(5, 6)] + edges[(6, 7)]  # window [5, 6, 7] is collinear
        report = validate(Instance(3, 14, edges, inst.initial_embedding))
        assert report.summary().split("; ") == [
            "NonpositiveDistance(None): edge {11, 12} has distance nan",
            "TooFewPredecessors(5): vertex 5 has 2 adjacent predecessors, needs 3",
            "MissingWindowEdge(5): missing window edge {3, 5}",
            "MissingWindowEdge(6): missing window edge {3, 5} (anchors of 6)",
            "DegenerateSimplex(8): window [5, 6, 7] has degenerate distance simplex",
            "MissingWindowEdge(9): missing window edge {8, 9}",
            "MissingWindowEdge(10): missing window edge {8, 9} (anchors of 10)",
            "MissingWindowEdge(11): missing window edge {8, 9} (anchors of 11)",
        ]


class TestReadOnlyEdges:
    def test_item_assignment_raises(self):
        inst = counterexample(2)
        solve(inst)  # the tables derived from the edges are built
        with pytest.raises(TypeError):
            inst.edges[(2, 3)] = 5.0
        with pytest.raises(TypeError):
            del inst.edges[(1, 2)]
        assert len(solve(inst).solutions) == 6

    def test_copies_stay_plain_dicts(self):
        inst = counterexample(2)
        edges = dict(inst.edges)
        edges[(2, 3)] = 5.0
        assert inst.edges[(2, 3)] == 1.0
        assert Instance(2, 5, edges, inst.initial_embedding).edges[(2, 3)] == 5.0


class TestRandomInstance:
    def test_deterministic_for_seed(self):
        a, wa = random_instance(3, 9, 0.4, 77)
        b, wb = random_instance(3, 9, 0.4, 77)
        assert a == b
        assert np.array_equal(wa, wb)

    def test_different_seed_differs(self):
        a, _ = random_instance(3, 9, 0.4, 77)
        b, _ = random_instance(3, 9, 0.4, 78)
        assert a != b

    @pytest.mark.parametrize("seed", range(5))
    def test_validates_and_witness_exact(self, seed):
        inst, witness = random_instance(2, 8, 0.3, seed)
        assert validate(inst).ok
        # distances are computed from the witness, so residuals are exactly 0
        for (u, v), d in inst.edges.items():
            assert float(np.linalg.norm(witness[u - 1] - witness[v - 1])) == d
        assert not edge_violations(inst, witness)

    def test_window_edges_always_present(self):
        inst, _ = random_instance(3, 10, 0.0, 5)
        for v in range(2, 11):
            for u in range(max(1, v - 3), v):
                assert (u, v) in inst.edges and v - u <= inst.dimension
        # no pruning edges at probability zero
        assert all(v - u <= 3 for (u, v) in inst.edges)

    def test_full_pruning_includes_long_edge(self):
        inst, _ = random_instance(2, 5, 1.0, 9)
        # {1, 5} reaches past the K = 2 window of vertex 5: a pruning edge.
        assert (1, 5) in inst.edges and 5 - 1 > inst.dimension

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_instance(2, 2, 0.0, 1)
        with pytest.raises(ValueError):
            random_instance(0, 5, 0.0, 1)
        with pytest.raises(ValueError):
            random_instance(2, 5, 1.5, 1)


class TestEdgeViolations:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_stack_matches_per_edge_loop(self, K):
        inst, witness = random_instance(K, 12, 0.5, 40 + K)
        rng = np.random.default_rng(K)
        moved = rng.random((30, 12, 1)) < 0.05  # which vertices get noise
        stack = witness + moved * rng.normal(scale=3e-9, size=(30, 12, K))
        got = stacked_edge_violations(inst, stack)
        for emb, found in zip(stack, got):
            want = []
            for (u, v), d in sorted(inst.edges.items()):
                res = abs(float(np.linalg.norm(emb[u - 1] - emb[v - 1])) - d)
                if res > 1e-9 + 1e-9 * d:
                    want.append(((u, v), res))
            assert found == want
            assert edge_violations(inst, emb) == want
        assert any(got) and not all(got)

    def test_nan_coordinate_violates_its_edges(self):
        inst, witness = random_instance(2, 6, 0.0, 7)
        emb = witness.copy()
        emb[3, 0] = np.nan
        bad = edge_violations(inst, emb)
        assert [e for e, _ in bad] == [e for e in sorted(inst.edges) if 4 in e]
        assert all(np.isnan(res) for _, res in bad)


class TestSerialization:
    def test_round_trip_counterexample(self):
        inst = counterexample(1)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_corpus(self, corpus):
        for name, inst in corpus.items():
            assert parse_instance(serialize_instance(inst)) == inst, name

    def test_fixture_files_match_generators(self, corpus):
        for name, inst in corpus.items():
            text = fixture_path(name).read_text(encoding="utf-8")
            assert parse_instance(text) == inst, name

    def test_distances_survive_seventeen_digits(self):
        inst, _ = random_instance(3, 8, 0.5, 123)
        again = parse_instance(serialize_instance(inst))
        assert again.edges == inst.edges
        assert again.initial_embedding == inst.initial_embedding

    def test_missing_dimension(self):
        text = "n: 3\ninitial_embedding:\n0 0\nedges:\n1 2 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_duplicate_edge(self):
        inst = counterexample(1)
        text = serialize_instance(inst) + "2 1 1.5\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.code == "DuplicateEdge"

    def test_bad_edge_line(self):
        text = "dimension: 1\nn: 2\ninitial_embedding:\n0\nedges:\n1 two 1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 6

    def test_out_of_range_edge(self):
        text = "dimension: 1\nn: 2\ninitial_embedding:\n0\nedges:\n1 5 1\n"
        with pytest.raises(ParseError):
            parse_instance(text)

    def test_unknown_field(self):
        with pytest.raises(ParseError):
            parse_instance("dimension: 1\nwhat: 3\n")

    def test_comments_and_blanks_ignored(self):
        inst = counterexample(1)
        text = "# header\n\n" + serialize_instance(inst)
        assert parse_instance(text) == inst


class TestParseErrors:
    """Each grammar error of parse_instance, with its text and line number."""

    @pytest.mark.parametrize("text, message, line", [
        ("dimension: 1\nn: 2\ninitial_embedding: 0\n",
         "initial_embedding takes no inline value", 3),
        ("dimension: 1\nn: 2\ninitial_embedding:\n0\nedges: 1 2 1\n",
         "edges takes no inline value", 5),
        ("dimension: 1\ninitial_embedding:\n0\n",
         "dimension and n must precede initial_embedding", 2),
        ("n: 2\nedges:\n1 2 1\n", "dimension and n must precede edges", 2),
        ("dimension: 2\nn: 3\ninitial_embedding:\n0 0\n1\n",
         "initial embedding row needs 2 coordinates, got 1", 5),
        ("dimension: 1\nn: 2\ninitial_embedding:\n0\nedges:\n2 2 1\n",
         "self-loop on vertex 2", 6),
        ("format: dgp-result 1\n", "not an instance file (format 'dgp-result 1')", 1),
        ("n: 2\n", "missing 'dimension' field", None),
        ("dimension: 1\n", "missing 'n' field", None),
        ("dimension: 1\nn: 2\ninitial_embedding:\n0\n", "missing 'edges' section", None),
        ("dimension: 2\nn: 3\ninitial_embedding:\n0 0\nedges:\n1 2 1\n",
         "initial embedding has 1 rows, expected 2", None),
    ], ids=["embedding-inline", "edges-inline", "embedding-early", "edges-early", "short-row",
            "self-loop", "result-format", "no-dimension", "no-n", "no-edges", "few-rows"])
    @pytest.mark.parametrize("padding", ["", "# note\n\n"], ids=["plain", "padded"])
    def test_message_and_line(self, text, message, line, padding):
        # blank and comment lines are not records, but they are counted
        if line is not None and padding:
            line += 2
        with pytest.raises(ParseError) as err:
            parse_instance(padding + text)
        prefix = "" if line is None else f"line {line}: "
        assert (str(err.value), err.value.line) == (prefix + message, line)


class TestLineModel:
    """parse_instance reads bytes and str through the one line index."""

    @given(data=st.lists(st.sampled_from(
        [b"a", b"1", b"#", b" ", b"\t", b"\r", b"\n", b"\r\n", b"\x0b", b"\x0c", b"\x1c",
         b"\x1f", b"\x00", b"\xc2\x85", b"\xc2\xa0", b"\xe2\x80\xa8"]), max_size=24))
    @settings(max_examples=500, derandomize=True, deadline=None)
    def test_line_index_matches_reference(self, data):
        data = b"".join(data)
        assert [data[i:j] for i, j in zip(*_line_index(data))] == split_lines(data)

    @pytest.mark.parametrize("layout", ["as-is", "crlf", "cr", "non-ascii-comment"])
    def test_bytes_read_as_str(self, corpus, layout):
        for name in corpus:
            text = fixture_path(name).read_text(encoding="utf-8")
            if layout == "non-ascii-comment":
                text = "# donn\u00e9es \u2028 \x85 \u00a0\n" + text.replace(
                    "edges:\n", "edges:\n# caf\u00e9\n")
            else:
                text = text.replace("\n", {"as-is": "\n", "crlf": "\r\n", "cr": "\r"}[layout])
            assert parse_instance(text.encode()) == parse_instance(text) == corpus[name], name

    def test_non_utf8_rejected_with_line(self):
        # the library gives the error the CLI prints for the same bytes
        with pytest.raises(ParseError) as err:
            parse_instance(b"format: dgp-instance 1\ndimension: 2\nn: \xff5\n")
        assert (str(err.value), err.value.line) == ("line 3: not UTF-8 text (byte 0xff)", 3)

    def test_lone_surrogate_rejected_with_line(self):
        text = serialize_instance(counterexample(1)).replace("edges:\n", "edges:\n# \udcff\n")
        line = text.splitlines().index("# \udcff") + 1
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (
            f"line {line}: not UTF-8 text (byte 0xed)", line)

    @pytest.mark.parametrize("row, message", [
        ("1 2\u00a01", "edge line needs 'u v d', got {!r}".format("1 2\u00a01")),
        ("1 2 1\x1f", "bad distance {!r}".format("1\x1f")),
        ("1\x0b2\x0c1", None),
    ], ids=["nbsp-inside", "unit-separator-end", "vt-ff-separate"])
    def test_block_fields_split_on_ascii_whitespace(self, row, message):
        text = "dimension: 1\nn: 2\ninitial_embedding:\n0\nedges:\n" + row + "\n"
        if message is None:
            assert parse_instance(text).edges == {(1, 2): 1.0}
            return
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (f"line 6: {message}", 6)


class TestCorpusHealth:
    def test_every_fixture_validates(self, corpus):
        for name, inst in corpus.items():
            assert validate(inst).ok, name

    def test_chain_parameters_recorded(self):
        assert CHAIN_PARAMS["chain_k2_n5"][:2] == (2, 5)
        assert len(RANDOM_PARAMS) == 10
        for K, n, _, _ in RANDOM_PARAMS.values():
            assert n - K <= 12  # oracle-comparable
