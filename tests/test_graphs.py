import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import adjacency
from pagl.graphs import (
    Graph,
    GraphFormatError,
    GraphValidationError,
    MultiplicityReport,
    count_multiplicities,
    load_binary,
    load_edge_list,
    save_binary,
    save_edge_list,
    simplify,
)


def edges_of(g):
    return [tuple(e) for e in g.edges.tolist()]


class TestParse:
    def test_basic(self):
        g = load_edge_list(io.StringIO("0 1\n1 2\n"))
        assert g.n == 3
        assert edges_of(g) == [(0, 1), (1, 2)]

    def test_empty(self):
        g = load_edge_list(io.StringIO(""))
        assert g.n == 0
        assert g.num_edges == 0

    def test_header_override(self):
        g = load_edge_list(io.StringIO("#n 5\n0 1\n"))
        assert g.n == 5
        assert edges_of(g) == [(0, 1)]

    def test_comments_and_blank_lines(self):
        g = load_edge_list(io.StringIO("# a comment\n\n0 1\n  \n# another\n1 0\n"))
        assert g.n == 2
        assert edges_of(g) == [(0, 1), (1, 0)]

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphFormatError) as ei:
            load_edge_list(io.StringIO("0 1\n0 1 2\n"))
        assert ei.value.line == 2
        assert "line 2" in str(ei.value)

    def test_non_integer(self):
        with pytest.raises(GraphFormatError) as ei:
            load_edge_list(io.StringIO("0 x\n"))
        assert ei.value.line == 1

    def test_negative_id(self):
        with pytest.raises(GraphFormatError):
            load_edge_list(io.StringIO("-1 2\n"))

    def test_id_above_declared_n(self):
        with pytest.raises(GraphValidationError):
            load_edge_list(io.StringIO("#n 2\n0 5\n"))


class TestSerialize:
    def test_canonical_output(self):
        buf = io.StringIO()
        save_edge_list(Graph(3, [(0, 1), (1, 2)]), buf)
        assert buf.getvalue() == "#n 3\n0 1\n1 2\n"

    def test_loop_case(self):
        buf = io.StringIO()
        save_edge_list(Graph(1, [(0, 0)]), buf)
        assert buf.getvalue() == "#n 1\n0 0\n"

    def test_round_trip_text(self, tmp_path):
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 100, size=(5000, 2))
        g = Graph(100, edges)
        path = tmp_path / "g.txt"
        save_edge_list(g, path)
        assert load_edge_list(path) == g

    def test_round_trip_binary(self, tmp_path):
        rng = np.random.default_rng(8)
        edges = rng.integers(0, 1000, size=(4000, 2))
        g = Graph(1000, edges)
        path = tmp_path / "g.bin"
        save_binary(g, path)
        assert load_binary(path) == g

    def test_binary_layout(self):
        buf = io.BytesIO()
        save_binary(Graph(3, [(0, 1), (1, 2)]), buf)
        raw = buf.getvalue()
        assert raw[:4] == b"PAGL"
        assert raw[4] == 1
        assert int.from_bytes(raw[5:13], "little") == 3
        assert int.from_bytes(raw[13:21], "little") == 2
        assert int.from_bytes(raw[21:29], "little") == 0
        assert int.from_bytes(raw[29:37], "little") == 1

    def test_binary_bad_magic(self):
        with pytest.raises(GraphFormatError):
            load_binary(io.BytesIO(b"NOPE" + bytes(40)))

    def test_binary_truncated(self):
        buf = io.BytesIO()
        save_binary(Graph(3, [(0, 1), (1, 2)]), buf)
        with pytest.raises(GraphFormatError):
            load_binary(io.BytesIO(buf.getvalue()[:-5]))


class TestSimplify:
    def test_loop_removed_duplicate_merged(self):
        g = Graph(3, [(0, 0), (0, 1), (1, 0), (1, 2)])
        s = simplify(g)
        assert adjacency(s) == {0: [1], 1: [0, 2], 2: [1]}

    def test_empty_graph(self):
        s = simplify(Graph(2, []))
        assert adjacency(s) == {0: [], 1: []}
        assert s.num_edges == 0

    def test_idempotent(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        s1 = simplify(g)
        back = Graph(4, [(u, v) for u in range(4) for v in s1.neighbors(u) if u < v])
        assert simplify(back) == s1

    def test_degree_sum(self):
        rng = np.random.default_rng(3)
        g = Graph(50, rng.integers(0, 50, size=(300, 2)))
        s = simplify(g)
        assert s.degrees().sum() == 2 * s.num_edges


class TestMultiplicities:
    def test_hand_count(self):
        rep = count_multiplicities(Graph(3, [(0, 0), (0, 1), (1, 0), (1, 2)]))
        assert rep == MultiplicityReport(loops=1, multi_edges=1, total_edges=4)

    def test_single_edge(self):
        rep = count_multiplicities(Graph(2, [(0, 1)]))
        assert rep == MultiplicityReport(loops=0, multi_edges=0, total_edges=1)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40))
    def test_brute_force(self, edges):
        pairs = Counter(frozenset(e) for e in edges if e[0] != e[1])
        rep = count_multiplicities(Graph(6, edges))
        assert rep.loops == sum(u == v for u, v in edges)
        assert rep.multi_edges == sum(pairs.values()) - len(pairs)
        assert rep.total_edges == len(edges)

    def test_edge_count_identity(self):
        rng = np.random.default_rng(5)
        g = Graph(30, rng.integers(0, 30, size=(500, 2)))
        rep = count_multiplicities(g)
        s = simplify(g)
        assert s.num_edges == rep.total_edges - rep.loops - rep.multi_edges


class TestGraphType:
    def test_degrees_count_loops_twice(self):
        g = Graph(2, [(0, 0), (0, 1)])
        assert g.degrees().tolist() == [3, 1]

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphValidationError):
            Graph(2, [(0, 2)])
        with pytest.raises(GraphValidationError):
            Graph(2, [(-1, 0)])
