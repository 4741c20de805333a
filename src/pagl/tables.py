"""The analyze tables as TSV: one writer and one reader per table.

Each table is a header line, then one tab-separated row per entry:

* degrees: ``d count cumulative`` (:class:`DegreeHistogram`);
* edges: ``d1 d2 X Xcum rho`` (:class:`RhoSurface`, read back against a
  grid);
* dnn: ``d dnn`` (:class:`NeighborDegreeProfile`);
* xcells: ``d1 d2 x`` (:class:`EdgeDegreeMatrix`, row for row).

Tables are written and read a whole column at a time.  Floats are written
with ``repr``, so they read back bit for bit.  Readers raise ValueError,
naming the file, for a wrong header, a row with the wrong number of
fields, a value the table cannot hold, or rows that are repeated, out of
order, or inconsistent with one another.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .graphs import _open_stream
from .stats import DegreeHistogram, EdgeDegreeMatrix, LogGrid, \
    NeighborDegreeProfile, RhoSurface, _grid_index, _tail_sums, \
    cumulative_degree

__all__ = [
    "format_rows",
    "write_degrees_tsv",
    "write_edges_tsv",
    "write_dnn_tsv",
    "write_xcells_tsv",
    "load_degrees_tsv",
    "surface_from_tables",
    "load_dnn_tsv",
    "load_xcells_tsv",
]

DEGREES_HEADER = "d\tcount\tcumulative"
EDGES_HEADER = "d1\td2\tX\tXcum\trho"
DNN_HEADER = "d\tdnn"
XCELLS_HEADER = "d1\td2\tx"


# ---------------------------------------------------------------------------
# writing

def _field(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _strings(column):
    if isinstance(column, np.ndarray):
        return map(repr if column.dtype.kind == "f" else str, column.tolist())
    return map(_field, column)


def format_rows(header: str, *columns) -> str:
    """TSV text: ``header``, then row i of item i of every column.

    Floats are written with ``repr`` and everything else with ``str``; a
    numpy column is formatted by its dtype, a sequence item by item.
    """
    rows = map("\t".join, zip(*map(_strings, columns), strict=True))
    return "\n".join(chain((header,), rows)) + "\n"


def _write(sink, text: str) -> None:
    with _open_stream(sink, "w") as stream:
        stream.write(text)


def write_degrees_tsv(h: DegreeHistogram, sink) -> None:
    """Rows ``d<TAB>count<TAB>cumulative`` over observed degrees (0 bucket
    included when present); cumulative is the strict tail count."""
    d, c = h.degrees, h.counts
    if h.isolated:
        d, c = np.append(0, d), np.append(h.isolated, c)
    _write(sink, format_rows(DEGREES_HEADER, d, c, cumulative_degree(h).at(d)))


def write_edges_tsv(surface: RhoSurface, sink) -> None:
    """Rows ``d1<TAB>d2<TAB>X<TAB>Xcum<TAB>rho`` over grid pairs d1 >= d2
    where rho is defined, row-major; X doubles the diagonal."""
    points = surface.grid.points
    a, b = np.tril_indices(points.size)
    keep = ~np.isnan(surface.rho[a, b])
    a, b = a[keep], b[keep]
    _write(sink, format_rows(EDGES_HEADER, points[a], points[b],
                             surface.x_exact[a, b], surface.cum_edges[a, b],
                             surface.rho[a, b]))


def write_dnn_tsv(profile: NeighborDegreeProfile, sink) -> None:
    """Rows ``d<TAB>dnn`` over degrees with at least one edge."""
    _write(sink, format_rows(DNN_HEADER, profile.d, profile.dnn))


def write_xcells_tsv(mat: EdgeDegreeMatrix, sink) -> None:
    """Rows ``d1<TAB>d2<TAB>x``: the matrix's cells, plain edge counts."""
    _write(sink, format_rows(XCELLS_HEADER, mat.d1, mat.d2, mat.x))


# ---------------------------------------------------------------------------
# reading

def _read_table(source, header: str, kinds: str):
    """The file's name and its columns, one array per character of
    ``kinds`` (``i`` int64, ``f`` float64); blank lines are skipped."""
    with _open_stream(source, "r") as stream:
        name = getattr(stream, "name", "<stream>")
        lines = stream.read().split("\n")
    if lines[0] != header:
        raise ValueError(f"{name}: expected header {header!r}, found {lines[0]!r}")
    body = lines[1:]
    tabs = np.fromiter(map(str.count, body, repeat("\t")), np.int64, len(body))
    odd = np.flatnonzero(tabs != len(kinds) - 1).tolist()
    for i in odd:
        if body[i]:
            raise ValueError(f"{name}:{i + 2}: malformed row {body[i]!r}")
    dtypes = [{"i": np.int64, "f": np.float64}[k] for k in kinds]
    if len(odd) == len(body):  # no rows
        return name, [np.empty(0, t) for t in dtypes]
    try:
        return name, np.loadtxt(
            body, dtype=[(f"c{j}", t) for j, t in enumerate(dtypes)],
            delimiter="\t", comments=None, ndmin=1, unpack=True)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _require(name: str, ok: np.ndarray, complaint) -> None:
    """Raise ValueError naming the file at the first row where ``ok`` is
    False; ``complaint(r)`` describes row r."""
    if not ok.all():
        raise ValueError(f"{name}: {complaint(int(np.argmin(ok)))}")


def load_degrees_tsv(source) -> DegreeHistogram:
    """Rebuild the degree histogram from an analyze degrees table.

    Rows must be degrees d >= 0 with a count of at least 1, in strictly
    increasing order, and ``cumulative`` must be the strict tail count
    (the sum of the counts in the rows below), as the writer leaves them.
    """
    name, (d, c, cum) = _read_table(source, DEGREES_HEADER, "iii")
    _require(name, (d >= 0) & (c >= 1),
             lambda r: f"bad row (degree {d[r]}, count {c[r]})")
    _require(name, d[1:] > d[:-1],
             lambda r: f"degree {d[r + 1]} is repeated or out of order")
    tail = _tail_sums(c)[1:]
    _require(name, cum == tail,
             lambda r: f"cumulative {cum[r]} at degree {d[r]} is not the "
                       f"tail count {tail[r]}")
    positive = d > 0  # the rows are sorted, so only the first can be 0
    return DegreeHistogram(d[positive], c[positive], int(c.sum()))


def surface_from_tables(hist: DegreeHistogram, edges_path,
                        grid: LogGrid) -> RhoSurface:
    """Rebuild the rho surface from an analyze edges table.

    The table stores grid pairs d1 >= d2 where rho is defined; the grid
    itself is recomputed from ``--alpha`` and the histogram's maximum
    degree, so the table must come from the same alpha.
    """
    name, (d1, d2, x, xcum, rho) = _read_table(edges_path, EDGES_HEADER, "iiiif")
    points = grid.points
    k = points.size
    (i, j), on_grid = _grid_index(points, np.stack([d1, d2]))
    _require(name, on_grid.all(axis=0),
             lambda r: f"degree pair ({d1[r]}, {d2[r]}) is not on the "
                       f"alpha grid; pass the --alpha used by analyze")
    _require(name, np.isfinite(rho),
             lambda r: f"rho {rho[r]!r} at ({d1[r]}, {d2[r]}) is not finite")
    cum_edges = np.zeros((k, k), dtype=np.int64)
    x_exact = np.zeros((k, k), dtype=np.int64)
    full_rho = np.full((k, k), np.nan)
    for full, values in ((x_exact, x), (cum_edges, xcum), (full_rho, rho)):
        full[i, j] = values
        full[j, i] = values
    return RhoSurface(grid=grid, cum_deg=cumulative_degree(hist).at(points),
                      cum_edges=cum_edges, rho=full_rho, x_exact=x_exact)


def load_dnn_tsv(source) -> NeighborDegreeProfile:
    """Rebuild the neighbor-degree profile from an analyze dnn table.

    Rows must be degrees d >= 1 in strictly increasing order, each with a
    finite mean neighbor degree dnn >= 1, as the writer leaves them.
    """
    name, (d, dnn) = _read_table(source, DNN_HEADER, "if")
    _require(name, d >= 1, lambda r: f"bad degree {d[r]}")
    _require(name, d[1:] > d[:-1],
             lambda r: f"degree {d[r + 1]} is repeated or out of order")
    _require(name, np.isfinite(dnn) & (dnn >= 1),
             lambda r: f"bad dnn {dnn[r]} at degree {d[r]}")
    return NeighborDegreeProfile(d, dnn)


def load_xcells_tsv(source) -> EdgeDegreeMatrix:
    """Rebuild the edge-degree matrix from an analyze xcells table.

    Rows must be cells d1 >= d2 with a count of at least 1, in strictly
    increasing (d1, d2) order, as the writer leaves them.
    """
    name, (d1, d2, x) = _read_table(source, XCELLS_HEADER, "iii")
    _require(name, (d1 >= d2) & (x >= 1),
             lambda r: f"bad cell ({d1[r]}, {d2[r]}, {x[r]})")
    ahead = (d1[1:] > d1[:-1]) | ((d1[1:] == d1[:-1]) & (d2[1:] > d2[:-1]))
    _require(name, ahead, lambda r: f"cell ({d1[r + 1]}, {d2[r + 1]}) is "
                                    f"repeated or out of (d1, d2) order")
    return EdgeDegreeMatrix(d1=d1, d2=d2, x=x)
