"""Graph representation, edge-list persistence, simplification, multiplicity counts.

A :class:`Graph` is a multigraph stored as a flat edge array plus a vertex
count; loops and parallel edges are legal.  :func:`simplify` collapses it to
an undirected :class:`SimpleGraph` in CSR form with sorted neighbor lists.

Two on-disk formats are supported:

* text: one ``u v`` pair per line, ``#`` starts a comment, an optional
  ``#n <int>`` header declares the vertex count (otherwise ``1 + max id``);
* binary: magic ``PAGL``, version byte 1, then little-endian u64 vertex
  count, u64 edge count, and (u, v) u64 pairs.
"""

from __future__ import annotations

import io
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Graph",
    "SimpleGraph",
    "MultiplicityReport",
    "GraphFormatError",
    "GraphValidationError",
    "load_edge_list",
    "save_edge_list",
    "load_binary",
    "save_binary",
    "simplify",
    "count_multiplicities",
]

BINARY_MAGIC = b"PAGL"
BINARY_VERSION = 1

# vertex ids are packed two to a 64-bit key, so they must fit in 32 bits
MAX_VERTICES = 1 << 32


class GraphFormatError(ValueError):
    """Raised for malformed graph files; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphValidationError(ValueError):
    """Raised when graph data violates an invariant (e.g. id out of range)."""


def _as_edge_array(edges) -> np.ndarray:
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError("edges must be a sequence of (u, v) pairs")
    return np.ascontiguousarray(arr)


@dataclass
class Graph:
    """Multigraph: ``n`` vertices labeled ``0..n-1`` and an ordered edge list.

    Parameters
    ----------
    n : int
        Vertex count.
    edges : array_like
        Sequence of (u, v) pairs; stored as an (E, 2) int64 array.
        Loops and repeated pairs are permitted.
    """

    n: int
    edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))

    def __post_init__(self):
        self.n = int(self.n)
        if self.n < 0:
            raise GraphValidationError("vertex count must be non-negative")
        if self.n > MAX_VERTICES:
            raise GraphValidationError(
                f"vertex count {self.n} exceeds the 32-bit id limit {MAX_VERTICES}")
        self.edges = _as_edge_array(self.edges)
        if self.edges.size:
            lo = self.edges.min()
            hi = self.edges.max()
            if lo < 0 or hi >= self.n:
                raise GraphValidationError(
                    f"edge endpoint out of range [0, {self.n}): found {lo if lo < 0 else hi}"
                )

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def degrees(self) -> np.ndarray:
        """Multigraph degree of every vertex; a loop contributes 2."""
        return np.bincount(self.edges.reshape(-1), minlength=self.n)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)


@dataclass
class SimpleGraph:
    """Undirected simple graph in CSR form with sorted neighbor lists."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0] // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass(frozen=True)
class MultiplicityReport:
    """Loop and excess-parallel-edge counts of a multigraph."""

    loops: int
    multi_edges: int
    total_edges: int

    def __post_init__(self):
        if self.loops + self.multi_edges > self.total_edges:
            raise GraphValidationError("loops + multi_edges exceeds total_edges")


# ---------------------------------------------------------------------------
# persistence

@contextmanager
def _open_stream(target, mode: str):
    """Yield a stream for ``target`` in ``mode`` (an ``open`` mode).

    A path is opened (ASCII in text modes) and closed on exit; an open
    stream is flushed and left open.  Text modes wrap a byte stream, and
    the wrapper is detached on exit so the byte stream stays usable.
    """
    binary = "b" in mode
    if isinstance(target, (str, os.PathLike)):
        with open(target, mode, encoding=None if binary else "ascii") as stream:
            yield stream
    elif binary or isinstance(target, io.TextIOBase):
        yield target
        target.flush()
    else:
        wrapper = io.TextIOWrapper(target, encoding="ascii", write_through=True)
        try:
            yield wrapper
        finally:
            wrapper.detach()


def load_edge_list(source) -> Graph:
    """Parse a text edge list from a path or stream.

    The vertex count is ``1 + max id`` unless a ``#n <int>`` header declares
    it.  Malformed lines raise :class:`GraphFormatError` with the line
    number; ids at or above a declared count raise
    :class:`GraphValidationError`.
    """
    with _open_stream(source, "r") as stream:
        text = stream.read()

    declared_n = None
    src: list[int] = []
    dst: list[int] = []
    bad_line = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if declared_n is None and len(parts) == 2 and parts[0] == "n":
                try:
                    declared_n = int(parts[1])
                except ValueError:
                    raise GraphFormatError("invalid '#n' header", lineno) from None
                if declared_n < 0:
                    raise GraphFormatError("negative vertex count in header", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"expected two vertex ids, got {len(parts)} fields", lineno
            )
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise GraphFormatError(f"non-integer vertex id {parts!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphFormatError("negative vertex id", lineno)
        if bad_line is None and declared_n is not None and max(u, v) >= declared_n:
            bad_line = lineno
        src.append(u)
        dst.append(v)

    if bad_line is not None:
        raise GraphValidationError(
            f"line {bad_line}: vertex id >= declared n={declared_n}"
        )
    edges = np.column_stack([src, dst]).astype(np.int64) if src else np.empty((0, 2), np.int64)
    if declared_n is not None:
        n = declared_n
    else:
        n = int(edges.max()) + 1 if edges.size else 0
    return Graph(n, edges)


def save_edge_list(g: Graph, sink) -> None:
    """Write ``g`` as text: an ``#n`` header then one edge per line."""
    with _open_stream(sink, "w") as stream:
        stream.write(f"#n {g.n}\n")
        # chunked formatting: tolist + join is much faster than per-row write
        edges = g.edges
        for lo in range(0, edges.shape[0], 1 << 18):
            block = edges[lo:lo + (1 << 18)].tolist()
            stream.write("".join(f"{u} {v}\n" for u, v in block))


def load_binary(source) -> Graph:
    """Read the binary edge-list format (magic ``PAGL``, version 1)."""
    with _open_stream(source, "rb") as stream:
        data = stream.read()
    if len(data) < 21 or data[:4] != BINARY_MAGIC:
        raise GraphFormatError("not a PAGL binary edge list (bad magic)")
    if data[4] != BINARY_VERSION:
        raise GraphFormatError(f"unsupported binary version {data[4]}")
    header = np.frombuffer(data, dtype="<u8", count=2, offset=5)
    n, num_edges = int(header[0]), int(header[1])
    need = 21 + 16 * num_edges
    if len(data) < need:
        raise GraphFormatError(
            f"truncated file: expected {need} bytes, got {len(data)}"
        )
    flat = np.frombuffer(data, dtype="<u8", count=2 * num_edges, offset=21)
    edges = flat.astype(np.int64).reshape(-1, 2)
    return Graph(n, edges)


def save_binary(g: Graph, sink) -> None:
    with _open_stream(sink, "wb") as stream:
        stream.write(BINARY_MAGIC)
        stream.write(bytes([BINARY_VERSION]))
        stream.write(np.array([g.n, g.num_edges], dtype="<u8").tobytes())
        stream.write(g.edges.astype("<u8").tobytes())


# ---------------------------------------------------------------------------
# simplification and multiplicity accounting

def _packed_pairs(edges: np.ndarray) -> np.ndarray:
    """The non-loop edges as unordered pairs packed ``lo << 32 | hi``."""
    u = edges[:, 0]
    v = edges[:, 1]
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    return (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)


def _unique_unordered_pairs(edges: np.ndarray):
    """Distinct non-loop unordered pairs (lo, hi), sorted."""
    # return_counts=True keeps np.unique fast: on numpy 2.4, plain
    # np.unique of 2e6 keys took 2.6 s against 0.05 s with counts
    keys, _ = np.unique(_packed_pairs(edges), return_counts=True)
    lo_u = (keys >> np.uint64(32)).astype(np.int64)
    hi_u = (keys & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return lo_u, hi_u


def simplify(g: Graph) -> SimpleGraph:
    """Drop loops, merge parallel edges, and return sorted CSR adjacency."""
    lo, hi = _unique_unordered_pairs(g.edges)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    counts = np.bincount(src, minlength=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return SimpleGraph(g.n, indptr, dst)


def count_multiplicities(g: Graph) -> MultiplicityReport:
    """Count loops and excess parallel edges.

    ``multi_edges`` sums ``occurrences - 1`` over distinct non-loop
    unordered pairs, so every copy beyond the first counts once.
    """
    total = g.num_edges
    packed = _packed_pairs(g.edges)
    packed.sort()
    nonloop = packed.shape[0]
    distinct = np.count_nonzero(packed[1:] != packed[:-1]) + (nonloop > 0)
    loops = total - nonloop
    multi = nonloop - distinct
    return MultiplicityReport(loops=int(loops), multi_edges=int(multi), total_edges=total)
