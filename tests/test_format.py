"""The byte-table formatter against the ``%`` formatter and the edge-id
digit table it replaced: the same bytes for every kind of column."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import pagl.graphs
from oracles import format_block_percent, format_ids_digits
from pagl._format import format_block
from pagl.graphs import Graph, edge_list_bytes
from pagl.tables import _ROW_BLOCK, format_rows

TOP_ID = 2**32 - 1

# values whose text is easy to get wrong
SPECIAL_FLOATS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                  -2.2250738585072014e-308, 1e-310, float(2**53 + 1),
                  0.1, 1e16, 1e-5, 123456789.0]
SPECIAL_INTS = [0, 1, 9, 10, 99, 100, 2**53 + 1, 2**63 - 1, -1, -(2**63)]

ints64 = st.one_of(st.sampled_from(SPECIAL_INTS),
                   st.integers(0, 10**6), st.integers(-(2**63), 2**63 - 1))
uints64 = st.one_of(st.sampled_from([0, 2**63 - 1, 2**63, 2**64 - 1]),
                    st.integers(0, 2**64 - 1))
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(),
                   st.integers(-(2**63), 2**63 - 1)
                   .map(lambda bits: float(np.int64(bits).view(np.float64))))
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
items = st.one_of(ints64, st.integers(2**63, 2**70), floats, texts,
                  st.booleans(), st.none(),
                  st.floats(width=32).map(np.float32), ints64.map(np.int64),
                  st.tuples(st.integers(0, 9), texts))


def object_array(values):
    out = np.empty(len(values), object)
    for i, v in enumerate(values):
        out[i] = v
    return out


def float32_array(values):
    with np.errstate(over="ignore"):
        return np.array(values, np.float64).astype(np.float32)


COLUMN_KINDS = {
    "int64": (ints64, lambda v: np.array(v, np.int64)),
    "uint64": (uints64, lambda v: np.array(v, np.uint64)),
    "float64": (floats, lambda v: np.array(v, np.float64)),
    "float32": (floats, float32_array),
    "bool": (st.booleans(), lambda v: np.array(v, bool)),
    "str": (texts, lambda v: np.array(v, str)),
    "object": (items, object_array),
    "sequence": (items, list),
}


@st.composite
def columns(draw, sizes):
    """One to four columns of one length from ``sizes``, each of a kind
    from COLUMN_KINDS, tiled from a short list of drawn values."""
    size = draw(st.sampled_from(sizes))
    out = []
    for kind in draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)),
                              min_size=1, max_size=4)):
        values, make = COLUMN_KINDS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=12))
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                              max_size=12))
        out.append(make([pool[picks[i % len(picks)]] for i in range(size)]))
    return out


def assert_same(got, want):
    """``got == want``, reporting the first line that differs, since
    pytest's own diff of two texts of 16k lines takes minutes."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        line = next((i for i, (g, w) in enumerate(pairs) if g != w), None)
        pytest.fail(f"texts differ first at line {line}: "
                    f"{got.splitlines()[line:line + 1]!r} != "
                    f"{want.splitlines()[line:line + 1]!r}"
                    if line is not None else "texts differ in length")


class TestAgainstPercentFormatter:
    @settings(max_examples=300, deadline=None)
    @given(columns([0, 1, 2, 3, 7]))
    def test_small_blocks(self, cols):
        assert format_block(cols) == format_block_percent(cols).encode()

    # shrinking an example of 16k rows would take minutes
    @settings(max_examples=12, deadline=None,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(columns([_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1]))
    def test_rows_across_a_block(self, cols):
        want = "h\n" + "".join(
            format_block_percent([c[lo:lo + _ROW_BLOCK] for c in cols])
            for lo in range(0, len(cols[0]), _ROW_BLOCK))
        assert_same(format_rows("h", *cols), want)

    def test_every_special_value(self):
        cols = [np.array(SPECIAL_FLOATS), float32_array(SPECIAL_FLOATS),
                list(SPECIAL_FLOATS), object_array(SPECIAL_FLOATS)]
        assert format_block(cols) == format_block_percent(cols).encode()
        ints = [np.array(SPECIAL_INTS), list(SPECIAL_INTS),
                np.array([v % 2**64 for v in SPECIAL_INTS], np.uint64)]
        assert format_block(ints) == format_block_percent(ints).encode()

    def test_nan_payloads_and_signed_zero_keep_their_text(self):
        bits = np.array([0x7FF8000000000001, -0x0008000000000000, 0, -2**63,
                         0x7FF0000000000000], np.int64)
        col = bits.view(np.float64)
        assert format_block([col]) == b"nan\nnan\n0.0\n-0.0\ninf\n"


def digits_oracle(g: Graph) -> bytes:
    """The edge list as the per-block digit table wrote it."""
    parts = [f"#n {g.n}\n".encode()]
    if g.edges.size:
        width = len(str(int(g.edges.max())))
        for lo in range(0, g.num_edges, 1 << 14):
            parts.append(format_ids_digits(g.edges[lo:lo + (1 << 14)], width))
    return b"".join(parts)


class TestEdgeListAgainstDigitTable:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.one_of(st.integers(0, 120),
                                          st.integers(0, TOP_ID))] * 2),
                    max_size=40),
           st.integers(1, 7))
    def test_bytes(self, edges, block):
        g = Graph(1 + max((max(e) for e in edges), default=-1), edges)
        want = digits_oracle(g)
        assert edge_list_bytes(g) == want
        with mock.patch.object(pagl.graphs, "_ROW_BLOCK", block):
            assert edge_list_bytes(g) == want

    def test_rows_across_a_block(self):
        gen = np.random.default_rng(5)
        for rows in ((1 << 14) - 1, 1 << 14, (1 << 14) + 1):
            edges = gen.integers(0, 10 ** gen.integers(1, 10, (rows, 2)))
            edges[-1] = TOP_ID, 0
            g = Graph(TOP_ID + 1, edges)
            assert_same(edge_list_bytes(g), digits_oracle(g))
            buf = io.StringIO()
            pagl.graphs.save_edge_list(g, buf)
            assert_same(buf.getvalue().encode(), digits_oracle(g))
