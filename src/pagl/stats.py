"""Empirical degree statistics of simple graphs.

Provides the degree histogram, the edge-degree table X(d1,d2) as one row
per unordered cell d1 >= d2 with its plain edge count, strict-tail
cumulative counts, the tail-correlation surface rho on a geometric
integer grid (the edges table in packed columns, its strict edge tails
summed by :class:`_TailBlock`, as the edge bootstrap's are), and the
average neighbor degree profile; :func:`graph_tables` builds all four of
a graph in one call, on the grid :func:`degree_grid` spans.  The surface
uses the symmetric convention in which an edge joining two degree-d
vertices adds 2 to X(d,d);
:meth:`EdgeDegreeMatrix.ordered_weight` is where that doubling lives.
The TSV form of each table is in :mod:`pagl.tables`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from .graphs import SimpleGraph, _run_starts

__all__ = list(_EXPORTS["stats"])


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


_PAIR_BLOCK = 1 << 15  # pairs read per pass of edge_degree_matrix


def edge_degree_matrix(g: SimpleGraph) -> EdgeDegreeMatrix:
    deg = g.degrees()
    # one key per edge: max degree << 32 | min degree, filled from
    # _PAIR_BLOCK pairs at a time
    keys = np.empty(g.num_edges, np.int64)
    for at in range(0, keys.size, _PAIR_BLOCK):
        block = g.pairs[at:at + _PAIR_BLOCK]
        a = deg[(block >> np.uint64(32)).view(np.int64)]
        b = deg[(block & np.uint64(0xFFFFFFFF)).view(np.int64)]
        out = keys[at:at + block.size]
        np.maximum(a, b, out=out)
        out <<= 32
        out |= np.minimum(a, b, out=a)
    keys.sort()
    # a cell is a run of equal keys
    starts = np.flatnonzero(_run_starts(keys))
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
    """The edges table's columns over grid-point pairs d1 >= d2.

    The vertex tail count above a grid point is positive on the first p
    grid points only.  ``X``, ``Xcum`` and ``rho`` hold the p(p+1)/2
    pairs of those points packed row by row: entry
    ``_packed(i, j)`` is the pair ``(points[i], points[j])``, i >= j.
    ``rho`` is Xcum over the two vertex tails; NaN marks a pair with no
    value, as a missing edges-table row would leave it.
    """

    grid: LogGrid
    X: np.ndarray
    Xcum: np.ndarray
    rho: np.ndarray


def _packed(i, j):
    """Position of the grid index pair (i, j), i >= j, in a packed
    triangle: row i starts at i(i+1)/2."""
    return i * (i + 1) // 2 + j


def _unpacked(at):
    """The grid index pairs (i, j) at the packed positions ``at``; exact
    below 2**50 (a grid has at most 10**7 points), where the square root
    cannot round across a row start."""
    i = ((np.sqrt(8.0 * at + 1.0) - 1.0) // 2).astype(np.int64)
    return i, at - _packed(i, 0)


def _grid_index(points: np.ndarray, values: np.ndarray):
    """Position of each value in ``points`` and whether it is a grid point."""
    idx = np.searchsorted(points, values)
    on = idx < points.size
    on[on] = points[idx[on]] == values[on]
    return idx, on


class _TailBlock:
    """Strict 2-D tails at grid index pairs, from the block of bins they read.

    A cell's bin is the number of grid points strictly below its degree;
    the tail at pair (i, j) sums the cells whose row bin exceeds i and
    whose column bin exceeds j.  Only the pairs' distinct grid ``rows``
    and ``cols`` bound such sums, so a cell lands in the last row and
    column at or below its bins (or nowhere), and the 2-D suffix sums of
    that block, read at each pair's position ``at``, are the tails.
    """

    def __init__(self, row_bin, col_bin, rows, cols, at):
        row = np.searchsorted(rows + 1, row_bin, side="right") - 1
        col = np.searchsorted(cols + 1, col_bin, side="right") - 1
        self.kept = (row >= 0) & (col >= 0)
        self.cell = (row * cols.size + col)[self.kept]
        self.shape = rows.size, cols.size
        self.at = at[0] * cols.size + at[1]  # flat, for one take

    def tails(self, weights):
        """The tails of integer-valued per-cell ``weights`` at every pair,
        as int64; exact while the block's sums stay below 2**53."""
        h = np.bincount(self.cell, weights=weights[self.kept],
                        minlength=self.shape[0] * self.shape[1])
        h = h.astype(np.int64)  # integer suffix sums take half the time
        v = h.reshape(self.shape)[::-1, ::-1]
        np.cumsum(v, axis=0, out=v)
        np.cumsum(v, axis=1, out=v)
        return h.take(self.at)


def _tail_rho(cum_edges, tail1, tail2):
    """rho = cum_edges / (tail1 * tail2), NaN where a tail count is 0, and
    the float64 tail product it divides by; the tails broadcast."""
    denom = tail1.astype(np.float64) * tail2
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, cum_edges / denom, np.nan), denom


def rho_surface(h: DegreeHistogram, x: EdgeDegreeMatrix, grid: LogGrid) -> RhoSurface:
    points = grid.points
    cum_deg = cumulative_degree(h).at(points)
    # the tails fall along the grid, so the positive ones come first
    p = np.count_nonzero(cum_deg)
    w = x.x * x.ordered_weight()
    # a cell's index on the grid is its bin: the grid points below it
    (i, j), on_grid = _grid_index(points, np.stack([x.d1, x.d2]))
    span, pairs = np.arange(p), np.tril_indices(p)
    Xcum = _TailBlock(i, j, span, span, pairs).tails(w)
    rho, _ = _tail_rho(Xcum, cum_deg[pairs[0]], cum_deg[pairs[1]])
    inside = on_grid.all(axis=0) & (i < p)
    X = np.zeros_like(Xcum)
    X[_packed(i[inside], j[inside])] = w[inside]
    return RhoSurface(grid, X, Xcum, rho)


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
    when ``simplify`` returns, and the simple graph after the matrix.
    """
    hist = degree_histogram(s)
    matrix = edge_degree_matrix(s)
    del s
    surface = rho_surface(hist, matrix, degree_grid(hist, alpha))
    return GraphTables(hist, matrix, surface, d_nn_profile(matrix))
