import io
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import pagl.graphs
from oracles import (
    adjacency,
    binary_bytes,
    distinct_pairs_lexsort,
    load_edge_list_lines,
    save_edge_list_lines,
    simplify_lexsort,
)
from pagl.graphs import (
    Graph,
    GraphFormatError,
    GraphValidationError,
    MultiplicityReport,
    _distinct_pairs,
    count_multiplicities,
    edge_list_chunks,
    load_binary,
    load_edge_list,
    save_binary,
    save_edge_list,
    simplify,
)

TOP_ID = 2**32 - 1


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

    @pytest.mark.parametrize("big", ["4294967296", "99999999999999999999"])
    def test_id_beyond_32_bits_names_line(self, big):
        with pytest.raises(GraphFormatError, match="32-bit id limit") as ei:
            load_edge_list(io.BytesIO(f"0 1\n{big} 1\n".encode()))
        assert ei.value.line == 2

    def test_top_id(self):
        g = load_edge_list(io.BytesIO(f"{TOP_ID} 0\n".encode()))
        assert g.n == 2**32 and edges_of(g) == [(TOP_ID, 0)]

    def test_underscore_in_id_rejected(self):
        # Python's int() reads "1_0" as 10; the format takes digits only
        with pytest.raises(GraphFormatError, match="non-integer") as ei:
            load_edge_list(io.BytesIO(b"0 1\n1_0 2\n"))
        assert ei.value.line == 2


def outcome(read):
    """The graph ``read()`` returns, or its error class and named line."""
    try:
        return read()
    except (GraphFormatError, GraphValidationError) as exc:
        line = re.match(r"line (\d+):", str(exc))
        return type(exc), int(line.group(1)) if line else None


IDS = st.one_of(st.integers(0, 60).map(str),
                st.sampled_from(["007", "+3", "-0", str(TOP_ID)]))
BAD_FIELDS = st.sampled_from(["x", "1.5", "1_0", "-1", "+", "-", "1-2",
                              "--1", "#", "3#"])
SEPS = st.sampled_from([" ", "\t", "  ", " \t "])
PADS = st.sampled_from(["", " ", "\t"])
EDGE_LINES = st.builds(lambda a, sep, b, l, r: l + a + sep + b + r,
                       IDS, SEPS, IDS, PADS, PADS)
COMMENT_LINES = st.one_of(
    st.sampled_from(["#", "# c", "  # 1 2", "# n 70", "#n x", "#n -3",
                     "#n +40", "#n 1_0", "#n 5 6", "#n", "#n4"]),
    st.integers(0, 80).map(lambda k: f"#n {k}"),
)
FAULT_LINES = st.builds(lambda fields, sep: sep.join(fields),
                        st.lists(st.one_of(IDS, BAD_FIELDS), min_size=1,
                                 max_size=4), SEPS)
LINES = st.one_of(EDGE_LINES, EDGE_LINES, EDGE_LINES, PADS, COMMENT_LINES,
                  FAULT_LINES)
EOLS = st.sampled_from(["\n", "\n", "\r\n", "\r"])
FILES = st.builds(lambda rows, last: "".join(l + e for l, e in rows) + last,
                  st.lists(st.tuples(LINES, EOLS), max_size=12),
                  st.one_of(st.just(""), LINES))


class TestReaderMatchesLineOracle:
    """The array reader and the per-line oracle agree on every file: the
    same Graph, or the same error class naming the same line."""

    @given(FILES)
    @example("1 2 3\n4\n")
    @example("0 1\n#n 1\n")
    @example("#n 3\n0 1\n#n x\n5 1\n")
    @example("0 1\r\n\t2\t3\r\n# c\r\n\r\n4 5")
    @example("1 2\n1 -\n")
    @example("1 -")
    @example("0 1\n1-2 5\n")
    @example("1 2\n \n")
    @example("#n x\n")
    def test_same_outcome(self, text):
        got = outcome(lambda: load_edge_list(io.BytesIO(text.encode())))
        want = outcome(lambda: load_edge_list_lines(text))
        assert got == want


class TestParseBlocks:
    """The reader checks and parses a file a block of whole lines at a
    time; no cut shows in the Graph, the error or its line number."""

    @given(FILES, st.integers(1, 12))
    @example("#n 4\r\n0 1\r\n\r\n+2\t-0\r\n# c\n3 3", 1)
    @example("0 1\r2 3\r\n\n#n 9\n4 5\n", 5)
    @example("#n 3\n0 1\n\n1 2\n2 9\n", 4)
    @example("0 1\n2 3\n4 5 6\n", 3)
    @example("0 1\n2 +\n", 2)
    def test_same_outcome(self, text, block):
        data = text.encode()
        want = outcome(lambda: load_edge_list_lines(text))
        assert outcome(lambda: load_edge_list(io.BytesIO(data))) == want
        with mock.patch.object(pagl.graphs, "_PARSE_BLOCK", block):
            assert outcome(lambda: load_edge_list(io.BytesIO(data))) == want

    def test_written_graph(self):
        g = Graph(5000, np.random.default_rng(3).integers(0, 5000, (3000, 2)))
        data = b"".join(edge_list_chunks(g))
        with mock.patch.object(pagl.graphs, "_PARSE_BLOCK", 5):
            assert load_edge_list(io.BytesIO(data)) == g


class TestWriterMatchesLineOracle:
    @pytest.mark.parametrize("g", [
        Graph(5, []),
        Graph(0, []),
        Graph(101, [(0, 9), (10, 99), (100, 0), (9, 9), (99, 100)]),
        Graph(2**32, [(0, TOP_ID), (TOP_ID, 10), (99, TOP_ID)]),
    ], ids=["no-edges", "n0", "digit-widths", "top-id"])
    def test_bytes(self, g):
        want = io.StringIO()
        save_edge_list_lines(g, want)
        assert b"".join(edge_list_chunks(g)) == want.getvalue().encode()
        got = io.BytesIO()
        save_edge_list(g, got)
        assert got.getvalue() == want.getvalue().encode()

    @given(st.lists(st.tuples(*[st.one_of(st.integers(0, 120),
                                          st.integers(0, TOP_ID))] * 2),
                    max_size=40),
           st.integers(1, 7))
    def test_blocks(self, edges, block):
        g = Graph(1 + max((max(e) for e in edges), default=-1), edges)
        want = io.StringIO()
        save_edge_list_lines(g, want)
        with mock.patch.object(pagl.graphs, "_ROW_BLOCK", block):
            assert b"".join(edge_list_chunks(g)) == want.getvalue().encode()


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

    def test_binary_trailing_bytes(self):
        # a header that under-counts its edges, as in two files joined
        raw = binary_bytes(Graph(3, [(0, 1), (1, 2)])) + bytes(16)
        with pytest.raises(GraphFormatError,
                           match="trailing bytes: expected 53 bytes, got 69"):
            load_binary(io.BytesIO(raw))

    @pytest.mark.parametrize("edges", [3, 2**40, 2**59])
    def test_binary_header_beyond_stream(self, edges):
        # a stream of unknown length is read as its ids arrive, so a
        # header that declares more edges than it holds allocates no more
        raw = binary_bytes(Graph(3, [(0, 1), (1, 2)]))
        raw[13:21] = edges.to_bytes(8, "little")
        with pytest.raises(GraphFormatError, match=f"truncated file: expected "
                           f"{21 + 16 * edges} bytes, got 53"):
            load_binary(io.BytesIO(raw))

    @pytest.mark.parametrize("big", [2**32, 2**63, 2**64 - 1])
    def test_binary_id_beyond_32_bits(self, big):
        raw = binary_bytes(Graph(3, [(0, 1), (1, 2)]))
        raw[-8:] = big.to_bytes(8, "little")
        with pytest.raises(GraphFormatError,
                           match=f"vertex id {big} exceeds the 32-bit id limit"):
            load_binary(io.BytesIO(raw))

    @pytest.mark.parametrize("n, edges", [
        (0, []), (1, [(0, 0)]), (TOP_ID + 1, [(TOP_ID, 0), (5, TOP_ID)])])
    def test_binary_bytes(self, n, edges):
        g = Graph(n, edges)
        # the layout written field by field
        want = b"PAGL\x01" + np.array([n, len(edges)], "<u8").tobytes() \
            + np.array(edges, "<u8").tobytes()
        buf = io.BytesIO()
        save_binary(g, buf)
        assert binary_bytes(g) == buf.getvalue() == want
        assert load_binary(io.BytesIO(want)) == g


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
        back = Graph(4, [(u, v) for u, nbrs in adjacency(s1).items()
                         for v in nbrs if u < v])
        assert simplify(back) == s1

    def test_degree_sum(self):
        rng = np.random.default_rng(3)
        g = Graph(50, rng.integers(0, 50, size=(300, 2)))
        s = simplify(g)
        assert s.degrees().sum() == 2 * s.num_edges

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=60),
           st.integers(0, 5))
    def test_matches_lexsort_oracle(self, edges, isolated):
        # loops, parallel edges in both orientations, and `isolated`
        # vertices past the last id
        g = Graph(10 + isolated, edges)
        s = simplify(g)
        assert s == simplify_lexsort(g)
        assert s.pairs.dtype == np.uint64
        assert s.indptr.dtype == np.int64

    def test_top_id_keys(self):
        # a Graph holding id 2**32-1 has n = 2**32, whose degree sum alone
        # takes 32 GiB, so the pair keys are checked without it
        edges = np.array([(TOP_ID, 0), (0, TOP_ID), (TOP_ID, TOP_ID),
                          (TOP_ID - 1, TOP_ID), (5, TOP_ID - 1), (5, 0)], np.int64)
        keys, nonloop = _distinct_pairs(edges)
        lo, hi = distinct_pairs_lexsort(edges)
        assert nonloop == 5
        assert (keys >> np.uint64(32)).tolist() == lo.tolist()
        assert (keys & np.uint64(0xFFFFFFFF)).tolist() == hi.tolist()


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
