"""Memory bounds of the analyze and fit layers on a generated BO graph.

Each bound is the tracemalloc peak of one call as a multiple of the size
of its file, of the arrays it returns (for the rho surface, its three
packed columns; for simplify, one 8-byte key per kept edge), or (for the
edge bootstrap) of one float64 per domain pair, with about 25% headroom
over the peak measured when the bound was set (BO a = 0.5, m = 5,
n = 60000, seed 0, numpy 2.4); the edges writer may hold the bytes it
wrote and the surface's packed columns once more.
Reading a file or a table whole, or building the whole of a table's text
at once, takes several times more and fails the bound.
"""

import io
import tracemalloc

import numpy as np
import pytest

from pagl.bootstrap import bootstrap_edges
from pagl.buckley_osthus import BOParams, generate_bo
from pagl.fitting import degree_range, pair_domain
from pagl.graphs import load_edge_list, save_edge_list, simplify
from pagl.stats import edge_degree_matrix, graph_tables, rho_surface
from pagl.tables import surface_from_tables, write_edges_tsv


def peak(call, *args):
    """``call(*args)``'s result and the most memory it held at once."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bo(tmp_path_factory):
    root = tmp_path_factory.mktemp("memory")
    save_edge_list(generate_bo(BOParams(a=0.5, m=5, n=60_000, seed=0)),
                   root / "g.tsv")
    s = simplify(load_edge_list(root / "g.tsv"))
    t = graph_tables(s, 1.01)
    write_edges_tsv(t.surface, root / "A.edges.tsv")
    return root, s, t


def test_load_edge_list(bo):
    root = bo[0]
    path = root / "g.tsv"
    # the file's bytes and 16 bytes of ids per line: 3.3 x the file
    _, used = peak(load_edge_list, path)
    assert used < 4.2 * path.stat().st_size


def test_simplify(bo):
    root = bo[0]
    g = load_edge_list(root / "g.tsv")
    # the packed non-loop keys, their copy without loops and the distinct
    # pairs kept: 2.40 x 8 bytes per kept edge; keying both orientations
    # of every pair and sorting them again takes 4.20
    s, used = peak(simplify, g)
    assert used < 3.0 * 8 * s.num_edges
    assert s == bo[1]


def test_edge_degree_matrix(bo):
    s = bo[1]
    # one 8-byte key per edge and block-sized temporaries: 1.64 x the keys
    _, used = peak(edge_degree_matrix, s)
    assert used < 2.2 * 8 * s.num_edges


def packed(surface) -> int:
    """The bytes of the surface's three packed columns."""
    return surface.X.nbytes + surface.Xcum.nbytes + surface.rho.nbytes


def test_rho_surface(bo):
    t = bo[2]
    # the packed columns, the packed pairs' grid indices and their tail
    # products, or the square block of tails: 2.78 x the columns
    surface, used = peak(rho_surface, t.hist, t.matrix, t.grid)
    assert used < 3.5 * packed(surface)
    assert surface.rho.tobytes() == t.surface.rho.tobytes()


def test_write_edges_tsv(bo):
    surface = bo[2].surface
    buf = io.BytesIO()
    # the bytes written and one block of rows, which takes 0.81 x the
    # packed columns; gathering a whole column of pairs takes more
    _, used = peak(write_edges_tsv, surface, buf)
    assert used < len(buf.getvalue()) + packed(surface)


def test_surface_from_tables(bo):
    root, _, t = bo
    # the three packed columns kept and one block of rows: 2.25 x the
    # columns; a K x K array of each takes twice the columns more
    back, used = peak(surface_from_tables, t.hist, root / "A.edges.tsv",
                      t.grid)
    assert used < 2.8 * packed(back)
    assert back.rho.tobytes() == t.surface.rho.tobytes()


def test_bootstrap_edges(bo):
    t = bo[2]
    domain = pair_domain(degree_range(t.grid, 9, 10_000), 10.0)
    # the tail block, the categories and the Gauss-Newton buffers over
    # the domain, with the tails summed in place: 22.8 float64 per pair
    rep, used = peak(bootstrap_edges, t.hist, t.matrix, domain, t.grid,
                     8, 0, 1)
    assert rep.diverged == 0
    assert used < 28 * 8 * len(domain)
