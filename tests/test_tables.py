import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pagl.tables
from pagl.cli import main
from pagl.graphs import Graph, simplify
from pagl.stats import (
    DegreeHistogram,
    EdgeDegreeMatrix,
    NeighborDegreeProfile,
    degree_grid,
    graph_tables,
)
from pagl.tables import (
    format_rows,
    load_degrees_tsv,
    load_dnn_tsv,
    load_xcells_tsv,
    surface_from_tables,
    write_degrees_tsv,
    write_dnn_tsv,
    write_edges_tsv,
    write_xcells_tsv,
)


def text_of(writer, obj) -> str:
    buf = io.StringIO()
    writer(obj, buf)
    return buf.getvalue()


degree_counts = st.dictionaries(st.integers(1, 10**6), st.integers(1, 10**9),
                                max_size=30)
cells = st.dictionaries(
    st.tuples(st.integers(1, 10**6), st.integers(1, 10**6))
    .map(lambda p: (max(p), min(p))),
    st.integers(1, 10**9), min_size=1, max_size=40)


def histogram_of(counts: dict, isolated: int = 0) -> DegreeHistogram:
    d = sorted(counts)
    c = [counts[k] for k in d]
    return DegreeHistogram(np.array(d, np.int64), np.array(c, np.int64),
                           sum(c) + isolated)


def matrix_of(table: dict) -> EdgeDegreeMatrix:
    keys = sorted(table)
    return EdgeDegreeMatrix(np.array([a for a, _ in keys], np.int64),
                            np.array([b for _, b in keys], np.int64),
                            np.array([table[k] for k in keys], np.int64))


class TestFormatRows:
    def test_columns_and_types(self):
        text = format_rows("a\tb\tc", np.array([1, 2]), np.array([0.1, np.nan]),
                           ["x", 3.0])
        assert text == "a\tb\tc\n1\t0.1\tx\n2\tnan\t3.0\n"

    def test_header_only(self):
        assert format_rows("a\tb", [], []) == "a\tb\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            format_rows("a\tb", [1, 2], [1])


class TestRoundTrip:
    @given(degree_counts, st.integers(0, 1000))
    def test_degrees(self, counts, isolated):
        h = histogram_of(counts, isolated)
        back = load_degrees_tsv(io.StringIO(text_of(write_degrees_tsv, h)))
        for name in ("degrees", "counts"):
            assert np.array_equal(getattr(back, name), getattr(h, name))
            assert getattr(back, name).dtype == np.int64
        assert back.n_vertices == h.n_vertices

    @given(cells)
    def test_xcells(self, table):
        mat = matrix_of(table)
        back = load_xcells_tsv(io.StringIO(text_of(write_xcells_tsv, mat)))
        for name in ("d1", "d2", "x"):
            assert np.array_equal(getattr(back, name), getattr(mat, name))
            assert getattr(back, name).dtype == np.int64

    @given(st.dictionaries(st.integers(1, 10**6),
                           st.floats(min_value=1.0, allow_nan=False,
                                     allow_infinity=False),
                           max_size=30))
    def test_dnn(self, table):
        d = np.array(sorted(table), np.int64)
        prof = NeighborDegreeProfile(d, np.array([table[v] for v in d.tolist()],
                                                 np.float64))
        back = load_dnn_tsv(io.StringIO(text_of(write_dnn_tsv, prof)))
        assert np.array_equal(back.d, prof.d)
        assert back.dnn.tobytes() == prof.dnn.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                    max_size=150),
           st.sampled_from([1.01, 1.2, 1.5, 2.0]))
    def test_edges(self, edges, alpha):
        t = graph_tables(simplify(Graph(30, edges)), alpha)
        surf = t.surface
        text = text_of(write_edges_tsv, surf)
        # fit reads the edges table back on the grid its degrees table gives
        hist = load_degrees_tsv(io.StringIO(text_of(write_degrees_tsv, t.hist)))
        grid = degree_grid(hist, alpha)
        assert np.array_equal(grid.points, t.grid.points)
        back = surface_from_tables(hist, io.StringIO(text), grid)
        # the table holds every pair of the grid points with a positive
        # tail count, so every column reads back whole
        p = int((t.tails.at(t.grid.points) > 0).sum())
        assert len(text.splitlines()) == 1 + p * (p + 1) // 2
        for column in ("X", "Xcum", "rho"):
            got, want = getattr(back, column), getattr(surf, column)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert text_of(write_edges_tsv, back) == text


def swap_first_off_diagonal(lines):
    row = next(r for r in range(1, len(lines))
               if lines[r].split("\t")[0] != lines[r].split("\t")[1])
    fields = lines[row].split("\t")
    lines[row] = "\t".join([fields[1], fields[0], *fields[2:]])


def next_rho(lines, row=1):
    """Move the rho of ``row`` to the next float up."""
    rho = float(lines[row].split("\t")[4])
    set_field(lines, row, 4, repr(float(np.nextafter(rho, np.inf))))


def set_field(lines, row, col, value):
    fields = lines[row].split("\t")
    fields[col] = value
    lines[row] = "\t".join(fields)


# each change breaks one rule of the edges rows: (change, message)
EDGES_ROW_RULES = {
    "repeated row": (lambda ls: ls.insert(3, ls[2]),
                     r"row \(.*\) is repeated or out of \(d1, d2\) order"),
    "repeated last row": (lambda ls: ls.append(ls[-1]),
                          "is repeated or out of"),
    "unsorted rows": (lambda ls: ls.__setitem__(slice(2, 4), ls[3:1:-1]),
                      "is repeated or out of"),
    "d1 < d2": (swap_first_off_diagonal, r"bad row \(d1 \d+, d2 \d+,"),
    "negative X": (lambda ls: set_field(ls, 2, 2, "-1"), r"bad row .* X -1,"),
    "negative Xcum": (lambda ls: set_field(ls, 2, 3, "-2"),
                      r"bad row .* Xcum -2\)"),
    "rho a float off": (next_rho, r"is not Xcum / \(tail\(d1\) \* tail\(d2\)\)"),
    "missing row": (lambda ls: ls.pop(3), r"row \(\d+, \d+\) is missing"),
    "missing last row": (lambda ls: ls.pop(), r"row \(\d+, \d+\) is missing"),
}


class TestBlocks:
    """Tables are written and read a block of rows at a time; neither the
    bytes, the arrays nor the errors show where a block ends."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                    max_size=150),
           st.sampled_from([1.01, 1.2, 2.0]), st.integers(1, 4))
    def test_round_trip(self, edges, alpha, block):
        gt = graph_tables(simplify(Graph(30, edges)), alpha)
        writers = (write_degrees_tsv, write_edges_tsv, write_dnn_tsv,
                   write_xcells_tsv)
        tables = (gt.hist, gt.surface, gt.profile, gt.matrix)
        want = [text_of(w, t) for w, t in zip(writers, tables)]
        with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
            assert [text_of(w, t) for w, t in zip(writers, tables)] == want
            back = (load_degrees_tsv(io.StringIO(want[0])),
                    surface_from_tables(gt.hist, io.StringIO(want[1]), gt.grid),
                    load_dnn_tsv(io.StringIO(want[2])),
                    load_xcells_tsv(io.StringIO(want[3])))
            assert [text_of(w, t) for w, t in zip(writers, back)] == want

    XCELLS = ["d1\td2\tx", *(f"{d}\t1\t1" for d in range(1, 12))]

    @pytest.mark.parametrize("changes, message", [
        ({11: "11"}, "<stream>:12: malformed row '11'"),
        ({11: "11\t1\tx"}, "could not convert string 'x'"),
        ({2: "2\t1\t1.5", 11: "11\t1"}, "<stream>:12: malformed row "),
        ({2: "", 6: "", 7: "", 9: "9\t1\tx"}, "could not convert string 'x'"),
    ], ids=["malformed-last", "value-last", "malformed-after-value",
            "value-after-blank-lines"])
    def test_errors_name_the_true_row(self, changes, message):
        lines = list(self.XCELLS)
        for i, line in changes.items():
            lines[i] = line
        text = "\n".join(lines) + "\n"

        def error():
            with pytest.raises(ValueError) as err:
                load_xcells_tsv(io.StringIO(text))
            return str(err.value)

        whole = error()
        assert message in whole
        for block in (1, 3):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                assert error() == whole

    # the exact message of each case, pinned at every block size: rows
    # whose tab counts add up to a valid block's, a malformed row behind
    # a block np.loadtxt rejects, a blank line and a whitespace-only line
    @pytest.mark.parametrize("changes, message", [
        ({3: "3\t1", 4: "4\t1\t1\t1"}, "<stream>:4: malformed row '3\\t1'"),
        ({3: "3\t1\t1\t1", 4: "4\t1"},
         "<stream>:4: malformed row '3\\t1\\t1\\t1'"),
        ({2: "2\t1\tx", 9: "9\t1"}, "<stream>:10: malformed row '9\\t1'"),
        ({4: "", 8: "8\t1\tx"},
         "<stream>: could not convert string 'x' to int64 at row 6, column 3."),
        ({4: "  "}, "<stream>:5: malformed row '  '"),
        ({4: " \t "}, "<stream>:5: malformed row ' \\t '"),
    ], ids=["tabs-add-up", "tabs-add-up-other-order", "malformed-after-rejected",
            "value-after-blank-line", "whitespace-line", "whitespace-and-tab"])
    def test_pinned_messages(self, changes, message):
        lines = list(self.XCELLS)
        for i, line in changes.items():
            lines[i] = line
        text = "\n".join(lines) + "\n"
        for block in (1, 2, 3, 4, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                with pytest.raises(ValueError) as err:
                    load_xcells_tsv(io.StringIO(text))
            assert str(err.value) == message

    def test_blank_line_is_skipped(self):
        lines = list(self.XCELLS)
        want = load_xcells_tsv(io.StringIO("\n".join(lines) + "\n"))
        lines.insert(5, "")
        for block in (1, 2, 3, 4, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                back = load_xcells_tsv(io.StringIO("\n".join(lines) + "\n"))
            assert text_of(write_xcells_tsv, back) == text_of(write_xcells_tsv, want)

    def test_edges_rows_of_three_and_five_tabs(self):
        edges = [(i, (3 * i + 1) % 30) for i in range(30)]
        t = graph_tables(simplify(Graph(30, edges)), 1.2)
        lines = text_of(write_edges_tsv, t.surface).splitlines()
        assert len(lines) > 3
        short = lines[2].rsplit("\t", 1)[0]
        lines[2], lines[3] = short, lines[3] + "\t0"
        text = "\n".join(lines) + "\n"
        for block in (1, 2, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                with pytest.raises(ValueError) as err:
                    surface_from_tables(t.hist, io.StringIO(text), t.grid)
            assert str(err.value) == f"<stream>:3: malformed row {short!r}"

    def test_edges_complaints_keep_their_order(self):
        edges = ([(i, (3 * i + 1) % 30) for i in range(30)]
                 + [(0, i) for i in range(2, 20)])
        t = graph_tables(simplify(Graph(30, edges)), 1.2)
        lines = text_of(write_edges_tsv, t.surface).splitlines()
        assert len(lines) > 6
        set_field(lines, 1, 4, "nan")  # first block: a rho that is not finite
        set_field(lines, len(lines) - 1, 0, "7777")  # last: a pair off the grid
        text = "\n".join(lines) + "\n"
        for block in (2, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                with pytest.raises(ValueError, match="7777, .* not on the alpha"):
                    surface_from_tables(t.hist, io.StringIO(text), t.grid)

    @pytest.mark.parametrize("case", sorted(EDGES_ROW_RULES))
    def test_edges_row_rules(self, case):
        # each change breaks one rule of the edges rows, wherever the
        # blocks end, and the message says which
        change, message = EDGES_ROW_RULES[case]
        edges = ([(i, (3 * i + 1) % 30) for i in range(30)]
                 + [(0, i) for i in range(2, 20)])
        t = graph_tables(simplify(Graph(30, edges)), 1.2)
        lines = text_of(write_edges_tsv, t.surface).splitlines()
        change(lines)
        text = "\n".join(lines) + "\n"
        for block in (1, 2, 3, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                with pytest.raises(ValueError, match=message):
                    surface_from_tables(t.hist, io.StringIO(text), t.grid)

    def test_edges_row_rules_come_last(self):
        edges = [(i, (3 * i + 1) % 30) for i in range(30)]
        t = graph_tables(simplify(Graph(30, edges)), 1.2)
        lines = text_of(write_edges_tsv, t.surface).splitlines()
        lines.insert(2, lines[1])  # first block: a repeated row
        set_field(lines, len(lines) - 1, 4, "inf")  # last: rho not finite
        text = "\n".join(lines) + "\n"
        for block in (2, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                with pytest.raises(ValueError, match="rho inf at .* not finite"):
                    surface_from_tables(t.hist, io.StringIO(text), t.grid)

    def test_missing_row_comes_after_the_others(self):
        edges = [(i, (3 * i + 1) % 30) for i in range(30)]
        t = graph_tables(simplify(Graph(30, edges)), 1.2)
        lines = text_of(write_edges_tsv, t.surface).splitlines()
        gone = lines.pop(2).split("\t")  # first block: a missing row
        next_rho(lines, len(lines) - 1)  # last: a rho a float off
        text = "\n".join(lines) + "\n"
        for block in (2, 1 << 14):
            with mock.patch.object(pagl.tables, "_ROW_BLOCK", block):
                with pytest.raises(ValueError, match="is not Xcum"):
                    surface_from_tables(t.hist, io.StringIO(text), t.grid)
        lines[-1] = text_of(write_edges_tsv, t.surface).splitlines()[-1]
        with pytest.raises(ValueError) as err:
            surface_from_tables(t.hist, io.StringIO("\n".join(lines)), t.grid)
        assert str(err.value) == f"<stream>: row ({gone[0]}, {gone[1]}) is missing"


class TestReaderRejects:
    @given(cells.filter(lambda t: len(t) >= 2), st.data())
    def test_xcells_repeated_or_unsorted_rows(self, table, data):
        rows = text_of(write_xcells_tsv, matrix_of(table)).splitlines()
        body = rows[1:]
        i = data.draw(st.integers(0, len(body) - 1))
        j = data.draw(st.integers(0, len(body) - 1).filter(lambda v: v != i))
        if data.draw(st.booleans()):
            body[j] = body[i]  # a repeated cell
        else:
            body[i], body[j] = body[j], body[i]  # two cells out of order
        with pytest.raises(ValueError, match="repeated or out of"):
            load_xcells_tsv(io.StringIO("\n".join([rows[0], *body]) + "\n"))

    @given(degree_counts.filter(lambda t: len(t) >= 2), st.data())
    def test_degrees_repeated_or_unsorted_rows(self, counts, data):
        h = histogram_of(counts)
        rows = text_of(write_degrees_tsv, h).splitlines()
        body = rows[1:]
        i = data.draw(st.integers(0, len(body) - 1))
        j = data.draw(st.integers(0, len(body) - 1).filter(lambda v: v != i))
        if data.draw(st.booleans()):
            body[j] = body[i]  # a repeated degree
        else:
            body[i], body[j] = body[j], body[i]  # two degrees out of order
        with pytest.raises(ValueError, match="repeated or out of order"):
            load_degrees_tsv(io.StringIO("\n".join([rows[0], *body]) + "\n"))

    # each dnn table breaks one rule, and the message says which
    @pytest.mark.parametrize("body, message", [
        ("0\t2.0\n", "bad degree 0"),
        ("-3\t2.0\n", "bad degree -3"),
        ("2\t2.0\n2\t3.0\n", "degree 2 is repeated or out of order"),
        ("3\t2.0\n2\t3.0\n", "degree 2 is repeated or out of order"),
        ("1\t2.0\n2\tnan\n", "bad dnn nan at degree 2"),
        ("1\tinf\n", "bad dnn inf at degree 1"),
        ("1\t-inf\n", "bad dnn -inf at degree 1"),
        ("1\t2.0\n4\t0.5\n", "bad dnn 0.5 at degree 4"),
    ])
    def test_dnn_values(self, tmp_path, body, message):
        path = tmp_path / "A.dnn.tsv"
        path.write_text("d\tdnn\n" + body)
        with pytest.raises(ValueError) as err:
            load_dnn_tsv(path)
        assert str(path) in str(err.value) and message in str(err.value)

    def test_line_number_of_malformed_row(self):
        text = "d\tdnn\n1\t2.0\n\n3\n"
        with pytest.raises(ValueError, match=r"<stream>:4: malformed row '3'"):
            load_dnn_tsv(io.StringIO(text))


# -- the CLI exits 2 on each kind of bad table --------------------------------

def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    root = tmp_path_factory.mktemp("tables")
    assert run("generate", "--model", "bo", "--a", 0.5, "--m", 3, "--n", 3000,
               "--seed", 4, "--out", root / "g.tsv") == 0
    assert run("analyze", "--graph", root / "g.tsv", "--out-prefix", root / "A") == 0
    return root


def fit_edges_table(root, edges):
    return run("fit", "--degrees", root / "A.degrees.tsv", "--edges", edges,
               "--d1-lo", 3, "--d1-hi", 60, "--out-prefix", root / "F")


def fit_degrees_table(root, degrees):
    return run("fit", "--degrees", degrees, "--edges", root / "A.edges.tsv",
               "--d1-lo", 3, "--d1-hi", 60, "--out-prefix", root / "F")


def bootstrap_xcells_table(root, xcells):
    return run("bootstrap", "--target", "edges",
               "--degrees", root / "A.degrees.tsv", "--xcells", xcells,
               "--d1-lo", 3, "--d1-hi", 60, "--iterations", 2,
               "--out-prefix", root / "B")




EDGES_CASES = {
    "wrong header": lambda ls: ls.__setitem__(0, "d1\td2\tX\tXcum\tr"),
    "extra field": lambda ls: ls.__setitem__(3, ls[3] + "\t7"),
    "missing field": lambda ls: ls.__setitem__(3, ls[3].rsplit("\t", 1)[0]),
    "off-grid pair": lambda ls: set_field(ls, 2, 0, "1000000000"),
    "nan rho": lambda ls: set_field(ls, 2, 4, "nan"),
    "non-integer X": lambda ls: set_field(ls, 2, 2, "1.5"),
    **{case: change for case, (change, _) in EDGES_ROW_RULES.items()},
    # the same cell twice, the second time with another rho
    "repeated row, other rho": lambda ls: ls.append(ls[-1].rsplit("\t", 1)[0]
                                                    + "\t0.5"),
}

XCELLS_CASES = {
    "wrong header": lambda ls: ls.__setitem__(0, "d1\td2\tcount"),
    "wrong field count": lambda ls: ls.__setitem__(2, ls[2] + "\t1"),
    "unsorted rows": lambda ls: ls.__setitem__(slice(1, 3), ls[2:0:-1]),
    "duplicate row": lambda ls: ls.insert(2, ls[1]),
    "d1 < d2": swap_first_off_diagonal,
    "count below 1": lambda ls: set_field(ls, 1, 2, "0"),
    "non-integer count": lambda ls: set_field(ls, 1, 2, "2.5"),
}


# each case breaks one rule, and the message says which
DEGREES_CASES = {
    "repeated row": (lambda ls: ls.insert(2, ls[2]), "repeated or out of order"),
    "unsorted rows": (lambda ls: ls.__setitem__(slice(1, 3), ls[2:0:-1]),
                      "repeated or out of order"),
    "negative degree": (lambda ls: set_field(ls, 1, 0, "-1"), "bad row"),
    "count below 1": (lambda ls: set_field(ls, 1, 1, "0"), "bad row"),
    "cumulative off by one": (
        lambda ls: set_field(ls, 2, 2, str(int(ls[2].split("\t")[2]) + 1)),
        "is not the tail count"),
    "non-integer cumulative": (lambda ls: set_field(ls, 2, 2, "1.5"),
                               "could not convert"),
}


def mutated(root, name, case, tag):
    lines = (root / name).read_text().splitlines()
    case(lines)
    path = root / f"bad-{tag}-{name}"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestCliRejectsBadTables:
    def test_unchanged_tables_pass(self, tables):
        assert fit_edges_table(tables, tables / "A.edges.tsv") == 0
        assert fit_degrees_table(tables, tables / "A.degrees.tsv") == 0
        assert bootstrap_xcells_table(tables, tables / "A.xcells.tsv") == 0

    def test_edges_table_missing_a_row(self, tmp_path, capsys):
        # without row (31, 3) this table fits to a2 = 0.1077, where the
        # whole table gives 0.0691; the reader refuses it instead
        assert run("generate", "--model", "bo", "--a", 0.5, "--m", 3,
                   "--n", 3000, "--seed", 1, "--out", tmp_path / "g.tsv") == 0
        assert run("analyze", "--graph", tmp_path / "g.tsv",
                   "--out-prefix", tmp_path / "A") == 0
        lines = (tmp_path / "A.edges.tsv").read_text().splitlines()
        kept = [line for line in lines if not line.startswith("31\t3\t")]
        assert len(kept) == len(lines) - 1
        path = tmp_path / "M.edges.tsv"
        path.write_text("\n".join(kept) + "\n")
        assert run("fit", "--degrees", tmp_path / "A.degrees.tsv",
                   "--edges", path, "--auto-range",
                   "--out-prefix", tmp_path / "F") == 2
        err = capsys.readouterr().err
        assert f"{path}: row (31, 3) is missing" in err
        assert "Traceback" not in err

    def test_header_only_edges_table(self, tables, capsys):
        path = tables / "header-only.edges.tsv"
        path.write_text("d1\td2\tX\tXcum\trho\n")
        assert fit_edges_table(tables, path) == 2
        err = capsys.readouterr().err
        assert f"{path}: row (1, 1) is missing" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(EDGES_CASES))
    def test_edges_table(self, tables, case, capsys):
        path = mutated(tables, "A.edges.tsv", EDGES_CASES[case], case.replace(" ", "_"))
        assert fit_edges_table(tables, path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(DEGREES_CASES))
    def test_degrees_table(self, tables, case, capsys):
        change, message = DEGREES_CASES[case]
        path = mutated(tables, "A.degrees.tsv", change, case.replace(" ", "_"))
        assert fit_degrees_table(tables, path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(XCELLS_CASES))
    def test_xcells_table(self, tables, case, capsys):
        path = mutated(tables, "A.xcells.tsv", XCELLS_CASES[case],
                       case.replace(" ", "_").replace("<", "lt"))
        assert bootstrap_xcells_table(tables, path) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
