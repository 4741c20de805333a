import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    adjacency,
    cells_dict,
    cumulative_edges,
    dnn_dict,
    histogram_dict,
    ordered_cells,
    row_sums,
    tails_dict,
)
from pagl.graphs import Graph, simplify
from pagl.stats import (
    _packed,
    _unpacked,
    cumulative_degree,
    d_nn_profile,
    degree_histogram,
    edge_degree_matrix,
    graph_tables,
    histogram_from_degrees,
    log_grid,
    rho_surface,
)
from pagl.tables import write_degrees_tsv, write_dnn_tsv, write_edges_tsv


def path3():
    return simplify(Graph(3, [(0, 1), (1, 2)]))


def random_simple(seed, n=40, rows=250):
    rng = np.random.default_rng(seed)
    return simplify(Graph(n, rng.integers(0, n, size=(rows, 2))))


class TestHistogram:
    def test_path(self):
        h = degree_histogram(path3())
        assert histogram_dict(h) == {1: 2, 2: 1}
        assert h.n_vertices == 3 and h.isolated == 0

    def test_isolated_bucket(self):
        h = histogram_from_degrees([0, 0, 0])
        assert histogram_dict(h) == {0: 3}
        assert h.degrees.size == 0 and h.counts.size == 0

    @given(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 10**12)),
                    max_size=200))
    def test_matches_counter(self, degrees):
        h = histogram_from_degrees(degrees)
        oracle = Counter(d for d in degrees if d > 0)
        assert h.degrees.tolist() == sorted(oracle)
        assert h.counts.tolist() == [oracle[d] for d in sorted(oracle)]
        assert (h.counts >= 1).all()
        assert h.degrees.dtype == h.counts.dtype == np.int64
        assert h.n_vertices == len(degrees)
        assert h.isolated == degrees.count(0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            histogram_from_degrees([1, -1])

    def test_tail_counts(self):
        t = cumulative_degree(degree_histogram(path3()))
        assert tails_dict(t) == {0: 3, 1: 1, 2: 0}
        assert t.at([0, 1, 2, 99]).tolist() == [3, 1, 0, 0]


class TestEdgeDegreeMatrix:
    def test_path_cells(self):
        x = edge_degree_matrix(path3())
        assert cells_dict(x) == {(2, 1): 2}
        assert ordered_cells(x) == {(1, 2): 2, (2, 1): 2}

    def test_diagonal_doubled(self):
        # single edge between two degree-1 vertices lands on the diagonal:
        # one edge in the table, weight 2 in the symmetric convention
        x = edge_degree_matrix(simplify(Graph(2, [(0, 1)])))
        assert cells_dict(x) == {(1, 1): 1}
        assert x.ordered_weight().tolist() == [2]
        assert ordered_cells(x) == {(1, 1): 2}
        assert x.total_edges == 1

    def test_rows_are_sorted_unordered_cells(self):
        s = random_simple(5)
        x = edge_degree_matrix(s)
        deg = s.degrees()
        brute = {}
        for v, nbrs in adjacency(s).items():
            for u in nbrs:
                if u > v:
                    cell = (max(deg[u], deg[v]), min(deg[u], deg[v]))
                    brute[cell] = brute.get(cell, 0) + 1
        assert cells_dict(x) == brute
        keys = list(zip(x.d1.tolist(), x.d2.tolist()))
        assert keys == sorted(brute)

    def test_marginal_identity(self):
        # sum_d2 X(d, d2) = d * (#vertices of degree d)
        s = random_simple(0)
        x = edge_degree_matrix(s)
        h = histogram_dict(degree_histogram(s))
        vals, sums = row_sums(x)
        for d, total in zip(vals.tolist(), sums.tolist()):
            assert total == d * h[d]

    def test_total_is_symmetric_sum(self):
        s = random_simple(1)
        x = edge_degree_matrix(s)
        assert x.total_edges == s.num_edges


class TestTailEdgeCounts:
    def test_path_values(self):
        t = cumulative_edges(edge_degree_matrix(path3()))
        assert int(t.at(0, 0)) == 2
        assert int(t.at(1, 0)) == 2
        assert int(t.at(0, 1)) == 2  # symmetric in the arguments
        assert int(t.at(1, 1)) == 0

    def test_rho_at_degree_pairs(self):
        h = cumulative_degree(degree_histogram(path3()))
        t = cumulative_edges(edge_degree_matrix(path3()))
        assert t.at(0, 0) / (h.at(0) * h.at(0)) == pytest.approx(2 / 9)
        assert t.at(1, 0) / (h.at(1) * h.at(0)) == pytest.approx(2 / 3)

    def test_brute_force_identity(self):
        s = random_simple(2)
        x = edge_degree_matrix(s)
        t = cumulative_edges(x)
        cells = ordered_cells(x)
        for d1 in range(0, 12, 3):
            for d2 in range(0, 12, 3):
                brute = sum(
                    w
                    for (a, b), w in cells.items()
                    if a >= b and max(a, b) > max(d1, d2) and min(a, b) > min(d1, d2)
                )
                assert int(t.at(d1, d2)) == brute


class TestLogGrid:
    def test_powers_of_two(self):
        assert log_grid(2.0, 20).points.tolist() == [2, 4, 8, 16]

    def test_dense_small(self):
        assert log_grid(1.01, 3).points.tolist() == [1, 2, 3]

    def test_strictly_increasing_capped(self):
        g = log_grid(1.01, 2500)
        p = g.points
        assert (np.diff(p) > 0).all()
        assert p[0] == 1 and p[-1] <= 2500

    def test_alpha_guard(self):
        with pytest.raises(ValueError):
            log_grid(1.0, 100)
        with pytest.raises(ValueError):
            log_grid(float("inf"), 100)


class TestRhoSurface:
    def test_path_surface(self):
        s = path3()
        grid = log_grid(1.5, 2)  # points [1, 2]
        h = degree_histogram(s)
        surf = rho_surface(h, edge_degree_matrix(s), grid)
        assert cumulative_degree(h).at(grid.points).tolist() == [1, 0]
        # only grid point 1 has a positive tail, so the triangle holds the
        # one pair (1, 1); the edges (2, 1) sit past its last row
        assert surf.Xcum.tolist() == [0]
        assert surf.X.tolist() == [0]
        assert surf.rho.tolist() == [0.0]

    def test_matches_tail_evaluator(self):
        s = random_simple(3)
        h = degree_histogram(s)
        x = edge_degree_matrix(s)
        grid = log_grid(1.2, int(np.diff(s.indptr).max()))
        surf = rho_surface(h, x, grid)
        t = cumulative_edges(x)
        pts = grid.points
        tails = cumulative_degree(h).at(pts)
        p = int((tails > 0).sum())
        i, j = np.tril_indices(p)
        assert surf.Xcum.dtype == np.int64
        assert (surf.Xcum == t.at(pts[i], pts[j])).all()
        cells = cells_dict(x)
        assert surf.X.tolist() == [
            cells.get((d1, d2), 0) * (1 + (d1 == d2))
            for d1, d2 in zip(pts[i].tolist(), pts[j].tolist())]
        assert surf.rho.tobytes() == (
            surf.Xcum / (tails[i].astype(np.float64) * tails[j])).tobytes()

    def test_packing_inverts(self):
        for p in (0, 1, 2, 7, 600):
            i, j = np.tril_indices(p)
            at = np.arange(i.size)
            assert (_packed(i, j) == at).all()
            got = _unpacked(at)
            assert got[0].tolist() == i.tolist() and got[1].tolist() == j.tolist()
        # rows far beyond the 10**7 points a grid may have
        i = np.array([2**26 - 1, 2**26, 3 * 10**7 + 1], np.int64)
        for j in (np.zeros_like(i), i):
            got = _unpacked(_packed(i, j))
            assert got[0].tolist() == i.tolist()
            assert got[1].tolist() == j.tolist()


class TestNeighborDegree:
    def test_path_profile(self):
        p = d_nn_profile(edge_degree_matrix(path3()))
        assert dnn_dict(p) == {1: 2.0, 2: 1.0}

    def test_handshake_identity(self):
        # dnn(d) * rowsum(d), summed over d, recovers sum of d2*X cells
        s = random_simple(4)
        x = edge_degree_matrix(s)
        p = d_nn_profile(x)
        _, rowsums = row_sums(x)
        assert float((p.dnn * rowsums).sum()) == pytest.approx(
            float(sum(b * w for (_, b), w in ordered_cells(x).items()))
        )


# graphs on at most 30 vertices: none, isolated vertices alone, and
# edge lists with loops and parallel edges for simplify to drop
small_graphs = st.integers(0, 30).flatmap(lambda n: st.builds(
    Graph, st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                       st.integers(0, max(n - 1, 0))),
             max_size=120 if n else 0)))


class TestGraphTables:
    @settings(max_examples=80, deadline=None)
    @given(small_graphs, st.sampled_from([1.01, 1.2, 2.0]))
    def test_equals_the_separate_calls(self, g, alpha):
        s = simplify(g)
        t = graph_tables(s, alpha)
        hist, matrix = degree_histogram(s), edge_degree_matrix(s)
        # the grid runs up to the largest degree, or to 1 without edges
        top = max(int(s.degrees().max(initial=0)), 1)
        points = log_grid(alpha, 10**4).points
        assert t.grid.points.tolist() == points[points <= top].tolist()
        assert t.grid.alpha == alpha
        surface = rho_surface(hist, matrix, t.grid)
        profile = d_nn_profile(matrix)
        for got, want, fields in (
                (t.hist, hist, ("degrees", "counts")),
                (t.matrix, matrix, ("d1", "d2", "x")),
                (t.surface, surface, ("X", "Xcum", "rho")),
                (t.profile, profile, ("d", "dnn")),
                (t.tails, cumulative_degree(hist), ("degrees", "suffix"))):
            for field in fields:
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), field
        assert t.hist.n_vertices == hist.n_vertices == g.n


class TestEmitters:
    def test_degrees_tsv(self):
        buf = io.StringIO()
        write_degrees_tsv(degree_histogram(path3()), buf)
        assert buf.getvalue() == "d\tcount\tcumulative\n1\t2\t1\n2\t1\t0\n"

    def test_edges_tsv(self):
        s = path3()
        surf = rho_surface(
            degree_histogram(s), edge_degree_matrix(s), log_grid(1.5, 2)
        )
        buf = io.StringIO()
        write_edges_tsv(surf, buf)
        assert buf.getvalue() == "d1\td2\tX\tXcum\trho\n1\t1\t0\t0\t0.0\n"

    def test_dnn_tsv(self):
        buf = io.StringIO()
        write_dnn_tsv(d_nn_profile(edge_degree_matrix(path3())), buf)
        assert buf.getvalue() == "d\tdnn\n1\t2.0\n2\t1.0\n"

    def test_path_sink(self, tmp_path):
        target = tmp_path / "deg.tsv"
        write_degrees_tsv(degree_histogram(path3()), target)
        assert target.read_text().startswith("d\tcount\tcumulative\n")
