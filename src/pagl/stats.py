"""Empirical degree statistics of simple graphs.

Provides the degree histogram, the edge-degree table X(d1,d2) as one row
per unordered cell d1 >= d2 with its plain edge count, strict-tail
cumulative counts, the tail-correlation surface rho on a geometric
integer grid, and the average neighbor degree profile;
:func:`graph_tables` builds all four of a graph in one call, on the grid
:func:`degree_grid` spans.  The surface uses the symmetric convention in
which an edge joining two degree-d vertices adds 2 to X(d,d);
:meth:`EdgeDegreeMatrix.ordered_weight` is where that doubling lives.
The TSV form of each table is in :mod:`pagl.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SimpleGraph

__all__ = [
    "DegreeHistogram",
    "EdgeDegreeMatrix",
    "LogGrid",
    "RhoSurface",
    "NeighborDegreeProfile",
    "TailCounts",
    "degree_histogram",
    "histogram_from_degrees",
    "edge_degree_matrix",
    "cumulative_degree",
    "log_grid",
    "rho_surface",
    "d_nn_profile",
    "GraphTables",
    "degree_grid",
    "graph_tables",
]


@dataclass
class DegreeHistogram:
    """Vertex counts by degree; isolated vertices are counted apart.

    ``degrees`` holds the observed degrees d >= 1 in increasing order and
    ``counts`` the number of vertices of each (all >= 1), both int64;
    ``n_vertices`` includes isolated vertices, so ``isolated`` is
    ``n_vertices - counts.sum()``.
    """

    degrees: np.ndarray
    counts: np.ndarray
    n_vertices: int

    @property
    def isolated(self) -> int:
        return self.n_vertices - int(self.counts.sum())

    def arrays(self):
        """The sorted positive degrees and their counts."""
        return self.degrees, self.counts


def degree_histogram(g: SimpleGraph) -> DegreeHistogram:
    return histogram_from_degrees(g.degrees())


def histogram_from_degrees(degrees) -> DegreeHistogram:
    """Histogram of an explicit degree sequence (isolated entries allowed)."""
    deg = np.asarray(degrees, dtype=np.int64)
    if deg.size and deg.min() < 0:
        raise ValueError("degrees must be non-negative")
    vals, cnts = np.unique(deg[deg > 0], return_counts=True)
    return DegreeHistogram(vals, cnts, int(deg.size))


@dataclass
class EdgeDegreeMatrix:
    """Sparse X(d1,d2): edge counts by endpoint-degree pair.

    One row per unordered cell ``d1 >= d2`` holding at least one edge,
    sorted by ``(d1, d2)``; ``x`` is the plain number of edges in the cell.
    """

    d1: np.ndarray
    d2: np.ndarray
    x: np.ndarray

    def ordered_weight(self) -> np.ndarray:
        """Per-cell factor of the symmetric convention: 2 on the diagonal,
        where an edge joining two degree-d vertices adds 2 to X(d,d), and
        1 elsewhere."""
        return 1 + (self.d1 == self.d2)

    @property
    def total_edges(self) -> int:
        return int(self.x.sum())


_SLOT_BLOCK = 1 << 15  # CSR slots read per pass of edge_degree_matrix


def edge_degree_matrix(g: SimpleGraph) -> EdgeDegreeMatrix:
    deg = np.diff(g.indptr)
    # one key per edge, from its smaller endpoint: max degree << 32 | min
    # degree, filled from the rows of about _SLOT_BLOCK slots at a time
    keys = np.empty(g.num_edges, np.int64)
    filled = 0
    v = 0
    while v < g.n:
        w = int(np.searchsorted(g.indptr, g.indptr[v] + _SLOT_BLOCK, "right"))
        w = min(max(w - 1, v + 1), g.n)
        dst = g.indices[g.indptr[v]:g.indptr[w]]
        src = np.repeat(np.arange(v, w), deg[v:w])
        upper = dst > src
        a = deg[src[upper]]
        b = deg[dst[upper]]
        out = keys[filled:filled + a.size]
        np.maximum(a, b, out=out)
        out <<= 32
        out |= np.minimum(a, b, out=a)
        filled += a.size
        v = w
    keys.sort()
    # a cell is a run of equal keys; find the runs by an adjacent difference
    first = np.empty(keys.shape, bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    cells = keys[starts]
    return EdgeDegreeMatrix(
        d1=cells >> 32,
        d2=cells & 0xFFFFFFFF,
        x=np.diff(starts, append=keys.size),
    )


# ---------------------------------------------------------------------------
# cumulative (strict tail) counts

@dataclass
class TailCounts:
    """Evaluator of the strict tail count: at(d) = #vertices of degree > d."""

    degrees: np.ndarray
    suffix: np.ndarray  # suffix[i] = number of vertices with degree >= degrees[i]

    def at(self, d):
        idx = np.searchsorted(self.degrees, np.asarray(d), side="right")
        return self.suffix[idx]


def _tail_sums(counts: np.ndarray) -> np.ndarray:
    """``out[i] = counts[i:].sum()``, then a final 0: over sorted degrees,
    the count of degree >= degrees[i], so ``out[i + 1]`` is the strict tail."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    out[:-1] = counts[::-1].cumsum()[::-1]
    return out


def cumulative_degree(h: DegreeHistogram) -> TailCounts:
    return TailCounts(h.degrees, _tail_sums(h.counts))


# ---------------------------------------------------------------------------
# geometric grid and the rho surface

@dataclass
class LogGrid:
    """Deduplicated integer grid floor(alpha^k), k >= 1, capped at d_max."""

    alpha: float
    points: np.ndarray

    def __len__(self):
        return self.points.size


def log_grid(alpha: float, d_max: int) -> LogGrid:
    """Grid values computed by iterated float multiplication, for a
    platform-stable sequence; alpha must be finite and above 1."""
    if not 1.0 < alpha < np.inf:
        raise ValueError(f"grid ratio alpha must be finite and exceed 1, "
                         f"got {alpha!r}")
    if d_max >= 1 and np.log(d_max + 1.0) / np.log(alpha) > 1e7:
        raise ValueError(f"alpha={alpha!r} needs too many grid steps for d_max={d_max}")
    points = []
    x = alpha
    while True:
        v = int(x)
        if v > d_max:
            break
        if not points or v > points[-1]:
            points.append(v)
        nxt = x * alpha
        if nxt == x:
            raise ValueError(f"alpha={alpha!r} too close to 1 to advance the grid")
        x = nxt
    return LogGrid(alpha, np.asarray(points, dtype=np.int64))


@dataclass
class RhoSurface:
    """Tail counts and the tail correlation on grid-point pairs.

    ``cum_deg[i]`` is the vertex tail count above ``grid.points[i]``;
    ``cum_edges`` and ``x_exact`` are dense symmetric K x K arrays; ``rho``
    is NaN where either tail count vanishes (undefined cells are omitted,
    not zero-filled).
    """

    grid: LogGrid
    cum_deg: np.ndarray
    cum_edges: np.ndarray
    rho: np.ndarray
    x_exact: np.ndarray

    def defined(self) -> np.ndarray:
        return ~np.isnan(self.rho)


def _bin_cells(points: np.ndarray, hi, lo, w):
    """Aggregate unordered cells into (K+1)^2 threshold-bin weights.

    Bin index of a value j is the number of grid points strictly below j,
    so the suffix sum over bins > (a, b) realizes the strict-tail
    condition j1 > points[a], j2 > points[b].
    """
    k = points.size
    b1 = np.searchsorted(points, hi, side="left")
    b2 = np.searchsorted(points, lo, side="left")
    h = np.zeros((k + 1, k + 1), dtype=np.int64)
    np.add.at(h, (b1, b2), w)
    return h


def _grid_index(points: np.ndarray, values: np.ndarray):
    """Position of each value in ``points`` and whether it is a grid point."""
    idx = np.searchsorted(points, values)
    on = idx < points.size
    on[on] = points[idx[on]] == values[on]
    return idx, on


def _suffix2d(h: np.ndarray) -> np.ndarray:
    """The 2-D suffix sums of ``h``, written over ``h`` (and returned) in
    the order a fresh ``cumsum`` takes, so with its bits and no copy."""
    v = h[::-1, ::-1]
    np.cumsum(v, axis=0, out=v)
    np.cumsum(v, axis=1, out=v)
    return h


def _surface_from_h(points, h):
    t = _suffix2d(h)[1:, 1:]
    a = np.arange(points.size)
    return np.where(a[:, None] >= a[None, :], t, t.T)


def _tail_rho(cum_edges, tail1, tail2):
    """rho = cum_edges / (tail1 * tail2), NaN where a tail count is 0, and
    the float64 tail product it divides by; the tails broadcast."""
    denom = tail1.astype(np.float64) * tail2
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, cum_edges / denom, np.nan), denom


def rho_surface(h: DegreeHistogram, x: EdgeDegreeMatrix, grid: LogGrid) -> RhoSurface:
    points = grid.points
    tails = cumulative_degree(h)
    cum_deg = tails.at(points)

    hi, lo = x.d1, x.d2
    w = x.x * x.ordered_weight()
    cum_edges = _surface_from_h(points, _bin_cells(points, hi, lo, w))

    k = points.size
    x_exact = np.zeros((k, k), dtype=np.int64)
    i1, on1 = _grid_index(points, hi)
    i2, on2 = _grid_index(points, lo)
    on_grid = on1 & on2
    x_exact[i1[on_grid], i2[on_grid]] = w[on_grid]
    x_exact = np.maximum(x_exact, x_exact.T)

    rho, _ = _tail_rho(cum_edges, cum_deg[:, None], cum_deg[None, :])
    return RhoSurface(grid, cum_deg, cum_edges, rho, x_exact)


# ---------------------------------------------------------------------------
# average neighbor degree

@dataclass
class NeighborDegreeProfile:
    """d_nn(d): mean neighbor degree, defined where degree d has edges."""

    d: np.ndarray
    dnn: np.ndarray


def d_nn_profile(x: EdgeDegreeMatrix) -> NeighborDegreeProfile:
    if x.x.size == 0:
        return NeighborDegreeProfile(np.empty(0, np.int64), np.empty(0, np.float64))
    # ordered row sums: a cell counts in row d1 and in row d2 (twice in
    # row d on the diagonal); integer sums, so the ratio is order-free
    num = np.zeros(int(x.d1.max()) + 1, dtype=np.int64)
    den = np.zeros_like(num)
    for row, other in ((x.d1, x.d2), (x.d2, x.d1)):
        np.add.at(num, row, other * x.x)
        np.add.at(den, row, x.x)
    d = np.flatnonzero(den)
    return NeighborDegreeProfile(d, num[d] / den[d])


# ---------------------------------------------------------------------------
# the tables of one graph

@dataclass(frozen=True)
class GraphTables:
    """The four tables of one simple graph, as ``pagl analyze`` writes them."""

    hist: DegreeHistogram
    matrix: EdgeDegreeMatrix
    surface: RhoSurface
    profile: NeighborDegreeProfile

    @property
    def tails(self) -> TailCounts:
        return cumulative_degree(self.hist)

    @property
    def grid(self) -> LogGrid:
        return self.surface.grid


def degree_grid(hist: DegreeHistogram, alpha: float) -> LogGrid:
    """The ``alpha`` grid up to the largest degree of ``hist``, or up to 1
    if it has none: the grid the edges table is written on and read back
    on."""
    return log_grid(alpha, int(hist.degrees[-1]) if hist.degrees.size else 1)


def graph_tables(s: SimpleGraph, alpha: float) -> GraphTables:
    """Histogram, edge-degree matrix, rho surface on :func:`degree_grid`,
    and neighbor degree profile of ``s``.

    Takes the simple graph, not the multigraph, so that in
    ``graph_tables(simplify(load(path)), alpha)`` the multigraph is freed
    as soon as ``simplify`` returns.
    """
    hist = degree_histogram(s)
    matrix = edge_degree_matrix(s)
    surface = rho_surface(hist, matrix, degree_grid(hist, alpha))
    return GraphTables(hist, matrix, surface, d_nn_profile(matrix))
