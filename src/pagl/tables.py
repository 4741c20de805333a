"""The analyze tables as TSV: one writer and one reader per table.

Each table is a header line, then one tab-separated row per entry:

* degrees: ``d count cumulative`` (:class:`DegreeHistogram`);
* edges: ``d1 d2 X Xcum rho`` (:class:`RhoSurface`, column for column:
  the p(p+1)/2 grid pairs d1 >= d2 of the grid points with a positive
  tail count, read back against the grid);
* dnn: ``d dnn`` (:class:`NeighborDegreeProfile`);
* xcells: ``d1 d2 x`` (:class:`EdgeDegreeMatrix`, row for row).

Tables are written and read one block of rows at a time, so the memory
a table takes beyond its arrays does not grow with its length.  Rows are
formatted by :func:`pagl._format.format_block`, which writes floats with
``repr``, so they read back bit for bit.  Readers raise
ValueError, naming the file, for a wrong header, a row with the wrong
number of fields, a value the table cannot hold, or rows that are
repeated, out of order, or inconsistent with one another.
"""

from __future__ import annotations

from itertools import chain, count, islice, repeat

import numpy as np

from . import _EXPORTS
from ._format import _ROW_BLOCK, _lines, _slices, format_rows
from .graphs import _open_stream, _write_bytes
from .stats import DegreeHistogram, EdgeDegreeMatrix, LogGrid, \
    NeighborDegreeProfile, RhoSurface, _grid_index, _packed, _tail_rho, \
    _tail_sums, _unpacked, cumulative_degree

__all__ = list(_EXPORTS["tables"])

DEGREES_HEADER = "d\tcount\tcumulative"
EDGES_HEADER = "d1\td2\tX\tXcum\trho"
DNN_HEADER = "d\tdnn"
XCELLS_HEADER = "d1\td2\tx"

_DTYPES = {"i": np.int64, "f": np.float64}


# ---------------------------------------------------------------------------
# writing

def write_degrees_tsv(h: DegreeHistogram, sink) -> None:
    """Rows ``d<TAB>count<TAB>cumulative`` over observed degrees (0 bucket
    included when present); cumulative is the strict tail count."""
    d, c = h.degrees, h.counts
    if h.isolated:
        d, c = np.append(0, d), np.append(h.isolated, c)
    _write_bytes(sink, _lines(DEGREES_HEADER, _slices(
        (d, c, cumulative_degree(h).at(d)), _ROW_BLOCK)))


def write_edges_tsv(surface: RhoSurface, sink) -> None:
    """Rows ``d1<TAB>d2<TAB>X<TAB>Xcum<TAB>rho``: the surface's packed
    pairs d1 >= d2, row-major; X doubles the diagonal."""
    points = surface.grid.points

    def blocks():
        columns = (surface.X, surface.Xcum, surface.rho)
        for lo, (x, xcum, rho) in zip(count(0, _ROW_BLOCK),
                                      _slices(columns, _ROW_BLOCK)):
            # one gather, so no index array lives while the block is written
            d1, d2 = points[np.stack(_unpacked(np.arange(lo, lo + rho.size)))]
            yield d1, d2, x, xcum, rho

    _write_bytes(sink, _lines(EDGES_HEADER, blocks()))


def write_dnn_tsv(profile: NeighborDegreeProfile, sink) -> None:
    """Rows ``d<TAB>dnn`` over degrees with at least one edge."""
    _write_bytes(sink, _lines(DNN_HEADER,
                              _slices((profile.d, profile.dnn), _ROW_BLOCK)))


def write_xcells_tsv(mat: EdgeDegreeMatrix, sink) -> None:
    """Rows ``d1<TAB>d2<TAB>x``: the matrix's cells, plain edge counts."""
    _write_bytes(sink, _lines(XCELLS_HEADER,
                              _slices((mat.d1, mat.d2, mat.x), _ROW_BLOCK)))


# ---------------------------------------------------------------------------
# reading

def _row_blocks(stream, name: str, header: str, kinds: str):
    """The rows of the table in ``stream``, a block of up to ``_ROW_BLOCK``
    lines at a time: per block, one array per character of ``kinds``
    (``i`` int64, ``f`` float64).  Blank lines are skipped.

    A row with the wrong number of fields raises at its line, ahead of
    any value np.loadtxt rejects, and np.loadtxt's message counts its
    rows from the top of the table, as if the table were read whole.
    Lines are checked one by one only in a block whose tab count is off
    or that np.loadtxt rejects, and in every block after such a rejection.
    """
    found = stream.readline().removesuffix("\n")
    if found != header:
        raise ValueError(f"{name}: expected header {header!r}, found {found!r}")
    dtype = [(f"c{j}", _DTYPES[k]) for j, k in enumerate(kinds)]
    line = 2  # the number of the block's first line
    rows = 0  # the data rows before the block
    failed = None  # (rows before, lines, error) of the first rejected block

    def check(lines, first):
        """Raise at the first malformed row of the block of ``lines`` that
        starts at line ``first``; return whether every line is blank."""
        tabs = np.fromiter(map(str.count, lines, repeat("\t")), np.int64,
                           len(lines))
        odd = np.flatnonzero(tabs != len(kinds) - 1).tolist()
        for i in odd:
            row = lines[i].removesuffix("\n")
            if row:
                raise ValueError(f"{name}:{first + i}: malformed row {row!r}")
        return len(odd) == len(lines)

    while lines := list(islice(stream, _ROW_BLOCK)):
        first = line
        line += len(lines)
        # np.loadtxt rejects a row with the wrong number of fields, so a
        # block whose tab count adds up is checked line by line only if
        # np.loadtxt rejects it
        if failed or "".join(lines).count("\t") != (len(kinds) - 1) * len(lines):
            if check(lines, first) or failed:
                continue
        try:
            columns = np.loadtxt(lines, dtype=dtype, delimiter="\t",
                                 comments=None, ndmin=1, unpack=True)
        except ValueError as exc:
            check(lines, first)
            failed = rows, lines, exc
            continue
        rows += columns[0].size
        yield columns
    if failed:
        # loadtxt numbers the rows it reads, so parse the block again
        # behind as many valid rows as the table holds before it
        before, lines, exc = failed
        zeros = "\t".join("0" * len(kinds))
        try:
            np.loadtxt(chain(repeat(zeros, before), lines), dtype=dtype,
                       delimiter="\t", comments=None, ndmin=1)
        except ValueError as again:
            exc = again
        raise ValueError(f"{name}: {exc}") from None


def _name(stream) -> str:
    return getattr(stream, "name", "<stream>")


def _read_table(source, header: str, kinds: str):
    """The file's name and its columns, one array per character of
    ``kinds`` (``i`` int64, ``f`` float64); blank lines are skipped."""
    with _open_stream(source, "r") as stream:
        name = _name(stream)
        blocks = list(_row_blocks(stream, name, header, kinds))
    if not blocks:
        return name, [np.empty(0, _DTYPES[k]) for k in kinds]
    return name, [np.concatenate(column) for column in zip(*blocks)]


def _require(name: str, ok: np.ndarray, complaint) -> None:
    """Raise ValueError naming the file at the first row where ``ok`` is
    False; ``complaint(r)`` describes row r."""
    if not ok.all():
        raise ValueError(f"{name}: {complaint(int(np.argmin(ok)))}")


def _ahead(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """Whether each row after the first is past the one before it in
    (d1, d2) order."""
    return (d1[1:] > d1[:-1]) | ((d1[1:] == d1[:-1]) & (d2[1:] > d2[:-1]))


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

    The table holds one row per grid pair d1 >= d2 of the p grid points
    with a positive tail count, p(p+1)/2 rows in all; the grid itself is
    recomputed from ``--alpha`` and the histogram's maximum degree, so the
    table must come from the same alpha.  Rows must be in strictly
    increasing (d1, d2) order with non-negative X and Xcum, each rho must
    be Xcum over the product of the histogram's tail counts at d1 and d2,
    bit for bit, and no row may be missing, as the writer leaves them.
    """
    points = grid.points
    cum_deg = cumulative_degree(hist).at(points)
    p = np.count_nonzero(cum_deg)
    X, Xcum = np.zeros((2, p * (p + 1) // 2), np.int64)
    packed_rho = np.full(X.size, np.nan)
    # the first complaint of each kind, raised once the table is read
    off_grid = not_finite = bad_row = out_of_order = wrong_rho = None
    # the last row of the previous block, to check the order across blocks
    last1 = last2 = np.empty(0, np.int64)
    with _open_stream(edges_path, "r") as stream:
        name = _name(stream)
        for d1, d2, x, xcum, rho in _row_blocks(stream, name, EDGES_HEADER,
                                                 "iiiif"):
            (i, j), on_grid = _grid_index(points, np.stack([d1, d2]))
            on_grid = on_grid.all(axis=0)
            if off_grid is None and not on_grid.all():
                r = int(np.argmin(on_grid))
                off_grid = (f"degree pair ({d1[r]}, {d2[r]}) is not on the "
                            f"alpha grid; pass the --alpha used by analyze")
            finite = np.isfinite(rho)
            if not_finite is None and not finite.all():
                r = int(np.argmin(finite))
                not_finite = (f"rho {float(rho[r])!r} at ({d1[r]}, {d2[r]}) "
                              f"is not finite")
            fine = (d1 >= d2) & (x >= 0) & (xcum >= 0)
            if bad_row is None and not fine.all():
                r = int(np.argmin(fine))
                bad_row = (f"bad row (d1 {d1[r]}, d2 {d2[r]}, X {x[r]}, "
                           f"Xcum {xcum[r]})")
            a1, a2 = np.append(last1, d1), np.append(last2, d2)
            ahead = _ahead(a1, a2)
            if out_of_order is None and not ahead.all():
                r = int(np.argmin(ahead)) + 1
                out_of_order = (f"row ({a1[r]}, {a2[r]}) is repeated or out "
                                f"of (d1, d2) order")
            last1, last2 = d1[-1:], d2[-1:]
            if off_grid is None:
                # a row past the p-th grid point has no place in the
                # triangle; its rho is not Xcum over a zero tail product
                held = (j <= i) & (i < p)
                at = _packed(i[held], j[held])
                X[at], Xcum[at], packed_rho[at] = x[held], xcum[held], rho[held]
                expected, _ = _tail_rho(xcum, cum_deg[i], cum_deg[j])
                same = expected == rho
                if wrong_rho is None and not same.all():
                    r = int(np.argmin(same))
                    wrong_rho = (f"rho {float(rho[r])!r} at ({d1[r]}, {d2[r]}) "
                                 f"is not Xcum / (tail(d1) * tail(d2)) = "
                                 f"{float(expected[r])!r} on the degrees table")
    for complaint in (off_grid, not_finite, bad_row, out_of_order, wrong_rho):
        if complaint:
            raise ValueError(f"{name}: {complaint}")
    # rows left out leave their rho NaN, as no row read in can
    if np.isnan(packed_rho).any():
        i, j = _unpacked(np.argmax(np.isnan(packed_rho)))
        raise ValueError(f"{name}: row ({points[i]}, {points[j]}) is missing")
    return RhoSurface(grid=grid, X=X, Xcum=Xcum, rho=packed_rho)


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
    _require(name, _ahead(d1, d2),
             lambda r: f"cell ({d1[r + 1]}, {d2[r + 1]}) is repeated or out "
                       f"of (d1, d2) order")
    return EdgeDegreeMatrix(d1=d1, d2=d2, x=x)
