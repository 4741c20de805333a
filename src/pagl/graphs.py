"""Graph representation, edge-list persistence, simplification, multiplicity counts.

A :class:`Graph` is a multigraph stored as a flat edge array plus a vertex
count; loops and parallel edges are legal.  :func:`simplify` collapses it to
an undirected :class:`SimpleGraph`: each distinct non-loop pair once, packed
``lo << 32 | hi`` into one sorted array, and the running degree sum.

Two on-disk formats are supported:

* text: one ``u v`` pair per line, ``#`` starts a comment line, the first
  ``#n <int>`` comment declares the vertex count (otherwise ``1 + max id``).
  Ids are ASCII decimals (an optional sign, then digits) below 2**32,
  separated by spaces or tabs; lines end at ``\n``, ``\r\n`` or ``\r``.
  The file is read whole, then checked and parsed one block of lines at
  a time into a single id array, and written one block of edges at a
  time (:func:`edge_list_chunks`); only a file that fails the array
  checks is scanned line by line, to name its first bad line;
* binary: magic ``PAGL``, version byte 1, then little-endian u64 vertex
  count, u64 edge count, and (u, v) u64 pairs.  The writer writes the
  header and then the graph's own id array; the reader reads the ids
  into one array that grows as they arrive, and rejects a file whose
  length is not 21 + 16 bytes per declared edge, and ids of 2**32 or
  more.
"""

from __future__ import annotations

import io
import os
import re
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from ._format import _ROW_BLOCK, _slices, format_block

__all__ = list(_EXPORTS["graphs"])

BINARY_MAGIC = b"PAGL"
BINARY_VERSION = 1
_BINARY_HEADER = 21  # magic, version, u64 vertex count, u64 edge count

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
    """Undirected simple graph: its distinct non-loop pairs, sorted.

    ``pairs`` holds each edge once, its endpoints ``lo < hi`` packed
    ``lo << 32 | hi``, as an ascending uint64 array; ``indptr`` is the
    running degree sum (n + 1 int64), so ``degrees()`` is its difference.
    """

    n: int
    indptr: np.ndarray
    pairs: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.pairs.shape[0]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def __eq__(self, other):
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.pairs, other.pairs)
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
    stream is flushed and left open.
    """
    if isinstance(target, (str, os.PathLike)):
        encoding = None if "b" in mode else "ascii"
        with open(target, mode, encoding=encoding) as stream:
            yield stream
    else:
        yield target
        target.flush()


# a field is a run of digits with an optional leading sign; fields are
# separated by the C whitespace that bytes.split() and np.fromstring skip,
# all of which sort below "+", the lowest field byte
_FIELD_BYTES = b"+-0123456789"
_SPACE_BYTES = b" \t\n\r\v\f"
_ID = re.compile(rb"[+-]?[0-9]+\Z")


def _int(field: bytes):
    """The value of a decimal field, or None if it is not one."""
    return int(field) if _ID.match(field) else None


def _declared_n(comment: bytes, lineno=None):
    """The count a ``#n <int>`` comment declares, None for other comments."""
    parts = comment[1:].split()
    if len(parts) != 2 or parts[0] != b"n":
        return None
    n = _int(parts[1])
    if n is None:
        raise GraphFormatError("invalid '#n' header", lineno)
    if n < 0:
        raise GraphFormatError("negative vertex count in header", lineno)
    return n


def _strip_comments(block: bytes, declared_n):
    """``block`` with every comment line emptied, and the declared count:
    ``declared_n``, or if that is None the first ``#n`` header in ``block``.

    None if a ``#`` sits inside a line of ids or the header is bad.  A
    block without comments is returned as it is, not copied.
    """
    pieces = []
    pos = 0
    hash_at = block.find(b"#")
    while hash_at >= 0:
        start = block.rfind(b"\n", 0, hash_at) + 1
        if block[start:hash_at].strip():
            return None
        end = block.find(b"\n", hash_at)
        end = len(block) if end < 0 else end
        if declared_n is None:
            try:
                declared_n = _declared_n(block[hash_at:end])
            except GraphFormatError:
                return None
        pieces.append(block[pos:start])
        pos = end
        hash_at = block.find(b"#", end)
    if not pieces:
        return block, declared_n
    pieces.append(block[pos:])
    return b"".join(pieces), declared_n


def _block_ids(body: bytes):
    """The ids of whole lines ``body`` (comments emptied, ``\\n`` line
    ends), or None if they fail the array checks: every field must be a
    run of digits with an optional leading sign, every line must hold 0
    or 2 fields, and every id must lie in ``[0, MAX_VERTICES)``."""
    if body.translate(None, _FIELD_BYTES + _SPACE_BYTES):
        return None
    byte = np.frombuffer(body, np.uint8)
    space = byte < ord("+")
    # a field starts at a non-space byte after a space byte (or at byte 0)
    start = np.empty(space.shape, bool)
    start[:1] = ~space[:1]
    np.greater(space[:-1], space[1:], out=start[1:])
    if b"+" in body or b"-" in body:
        sign = np.flatnonzero((byte == ord("+")) | (byte == ord("-")))
        # a sign must open its field and be followed by a digit
        if sign[-1] + 1 == byte.size or not start[sign].all() \
                or (byte[sign + 1] < ord("0")).any():
            return None
    # fields per line: the field starts between consecutive newlines, with
    # one more newline closing the last line
    newline = byte == ord("\n")
    is_newline = newline[np.flatnonzero(start | newline)]
    breaks = np.flatnonzero(np.append(is_newline, True))
    per_line = np.diff(breaks, prepend=-1) - 1
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    if is_newline.all():  # no fields
        return np.empty(0, np.int64)
    # one value per field, now that every field is a signed run of digits
    # (np.fromstring would read a body of spaces alone as one 0)
    ids = np.fromstring(body, np.int64, sep=" ")
    if ids.min() < 0 or ids.max() >= MAX_VERTICES:
        return None
    return ids


_PARSE_BLOCK = 1 << 18  # bytes of whole lines checked and parsed per pass


def _one_newline(data: bytes) -> bytes:
    """``data`` with ``\\r\\n`` and ``\\r`` line ends made ``\\n``."""
    if b"\r" not in data:
        return data
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _parse(data: bytes):
    """(declared n, (E, 2) ids) of a valid edge list, else None.

    ``data`` is cut after a ``\\n`` into blocks of about ``_PARSE_BLOCK``
    bytes, which never splits a line or a ``\\r\\n``; each block is checked
    and read on its own, so the temporaries are block-sized.  The ids go
    straight into one array sized for two ids per line.
    """
    lines = data.count(b"\n") + data.count(b"\r") + 1  # at least the lines
    ids = np.empty(2 * lines, np.int64)
    count = 0
    declared_n = None
    lo = 0
    while lo < len(data):
        hi = data.find(b"\n", lo + _PARSE_BLOCK) + 1 or len(data)
        block = data[lo:hi]
        lo = hi
        stripped = _strip_comments(_one_newline(block), declared_n)
        if stripped is None:
            return None
        block, declared_n = stripped
        values = _block_ids(block)
        if values is None:
            return None
        ids[count:count + values.size] = values
        count += values.size
    return declared_n, ids[:count].reshape(-1, 2)


def _raise_first_bad_line(data: bytes) -> None:
    """Raise the error of the first bad line of ``data``, line by line.

    Format errors raise at their line; an id at or above the declared
    count raises after the scan, naming the first such line after the
    header.  Returns if neither occurs.
    """
    declared_n = None
    bad_line = None
    for lineno, raw in enumerate(data.split(b"\n"), 1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0].startswith(b"#"):
            if declared_n is None:
                declared_n = _declared_n(raw.strip(), lineno)
            continue
        if len(parts) != 2:
            raise GraphFormatError(
                f"expected two vertex ids, got {len(parts)} fields", lineno
            )
        u = _int(parts[0])
        v = _int(parts[1])
        if u is None or v is None:
            shown = [p.decode() for p in parts]
            raise GraphFormatError(f"non-integer vertex id {shown!r}", lineno)
        if u < 0 or v < 0:
            raise GraphFormatError("negative vertex id", lineno)
        if max(u, v) >= MAX_VERTICES:
            raise GraphFormatError(
                f"vertex id {max(u, v)} exceeds the 32-bit id limit", lineno
            )
        if bad_line is None and declared_n is not None and max(u, v) >= declared_n:
            bad_line = lineno
    if bad_line is not None:
        raise GraphValidationError(
            f"line {bad_line}: vertex id >= declared n={declared_n}"
        )


def load_edge_list(source) -> Graph:
    """Parse a text edge list from a path or stream.

    The vertex count is ``1 + max id`` unless a ``#n <int>`` header declares
    it.  Malformed lines, and ids of 2**32 or more, raise
    :class:`GraphFormatError` with the line number; ids at or above a
    declared count raise :class:`GraphValidationError`.
    """
    with _open_stream(source, "rb") as stream:
        data = stream.read()
    data = data.encode("ascii") if isinstance(data, str) else data
    if not data.isascii():
        data.decode("ascii")  # raises UnicodeDecodeError naming the byte
    parsed = _parse(data)
    if parsed is None:
        _raise_first_bad_line(_one_newline(data))
        raise GraphFormatError("malformed edge list")  # not reached: the scan raises
    declared_n, edges = parsed
    if declared_n is None:
        return Graph(int(edges.max()) + 1 if edges.size else 0, edges)
    if edges.size and edges.max() >= declared_n:
        # names the first line past the header; ids above a late header
        # that precede it are left to Graph
        _raise_first_bad_line(_one_newline(data))
    return Graph(declared_n, edges)


def edge_list_chunks(g: Graph):
    """``g`` as text, a block at a time: an ``#n`` header, then ``u v`` lines."""
    yield f"#n {g.n}\n".encode()
    for block in _slices((g.edges[:, 0], g.edges[:, 1]), _ROW_BLOCK):
        yield format_block(block, b" ")


def _write_bytes(sink, chunks) -> None:
    """Write byte ``chunks`` to ``sink``: a path, a byte stream, or a text
    stream (as ASCII text)."""
    if isinstance(sink, io.TextIOBase):
        sink.writelines(chunk.decode("ascii") for chunk in chunks)
        sink.flush()
        return
    with _open_stream(sink, "wb") as stream:
        stream.writelines(chunks)


def save_edge_list(g: Graph, sink) -> None:
    """Write ``g`` as text: an ``#n`` header then one edge per line."""
    _write_bytes(sink, edge_list_chunks(g))


# ids per block of the binary reader and writer.  The reader starts its
# array at this size and doubles it, up to the count the header declares,
# so a header that lies about its edge count allocates no more than twice
# what the stream holds.  The writer hands the sink one block at a time
# because `generate --verify` reads back a buffer as large as each write,
# and a big-endian host converts only one block at a time.
_STREAM_IDS = 1 << 16


def _regular_size(stream):
    """The byte length of ``stream``'s regular file from its header on,
    or None if it is not a regular file."""
    try:
        info = os.fstat(stream.fileno())
    except (AttributeError, OSError):
        return None  # a stream with no file under it
    if not stat.S_ISREG(info.st_mode):
        return None
    return info.st_size - stream.tell() + _BINARY_HEADER


def _read_ids(stream, count: int):
    """The next ``count`` little-endian ids of ``stream``, and the number
    of bytes it held from here on: the ids are all there only if that is
    ``8 * count``.  They are read into an array of ``_STREAM_IDS`` ids
    that doubles, up to ``count``, whenever it fills before the stream
    ends; the resize is in place, so the peak stays that of the ids."""
    ids = np.empty(min(count, _STREAM_IDS), "<i8")
    got = 0  # bytes read
    while got < ids.nbytes or ids.size < count:
        if got == ids.nbytes:
            # in place: no view of ids outlives the readinto it was made for
            ids.resize(min(count, 2 * ids.size), refcheck=False)
        read = stream.readinto(ids.view(np.uint8)[got:])
        if not read:
            return ids, got
        got += read
    spare = bytearray(1 << 12)  # counts the bytes past the ids
    while read := stream.readinto(spare):
        got += read
    return ids, got


def load_binary(source) -> Graph:
    """Read the binary edge-list format (magic ``PAGL``, version 1).

    A file whose length is not the header's 21 bytes plus 16 per edge it
    declares, or that holds an id of 2**32 or more, raises
    :class:`GraphFormatError`.  A regular file's length is checked before
    anything is allocated.  The ids are read in blocks into the graph's
    array, which doubles as they arrive, so a stream of unknown length
    whose header declares more edges than it holds allocates at most
    twice the stream's length (or one block).
    """
    with _open_stream(source, "rb") as stream:
        head = stream.read(_BINARY_HEADER)
        if len(head) < _BINARY_HEADER or head[:4] != BINARY_MAGIC:
            raise GraphFormatError("not a PAGL binary edge list (bad magic)")
        if head[4] != BINARY_VERSION:
            raise GraphFormatError(f"unsupported binary version {head[4]}")
        n, num_edges = map(int, np.frombuffer(head, "<u8", 2, 5))
        need = _BINARY_HEADER + 16 * num_edges
        size = _regular_size(stream)
        if size in (None, need):  # a pipe is measured by reading it
            ids, size = _read_ids(stream, 2 * num_edges)
            size += _BINARY_HEADER
    if size != need:
        what = "truncated file" if size < need else "trailing bytes"
        raise GraphFormatError(f"{what}: expected {need} bytes, got {size}")
    ids = ids.astype(np.int64, copy=False)  # a copy on a big-endian host only
    # checked as u64: as int64, an id of 2**63 or more reads as a negative one
    top = int(ids.view(np.uint64).max()) if ids.size else 0
    if top >= MAX_VERTICES:
        raise GraphFormatError(f"vertex id {top} exceeds the 32-bit id limit")
    return Graph(n, ids.reshape(-1, 2))


def save_binary(g: Graph, sink) -> None:
    """Write ``g`` in the binary format to a path or byte stream: the
    header, then the graph's own id array, which is converted to
    little-endian a block at a time only on a big-endian host."""
    head = np.array([g.n, g.num_edges], "<u8").tobytes()
    ids = g.edges.reshape(-1)
    with _open_stream(sink, "wb") as stream:
        stream.write(BINARY_MAGIC + bytes([BINARY_VERSION]) + head)
        for lo in range(0, ids.size, _STREAM_IDS):
            block = ids[lo:lo + _STREAM_IDS].astype("<i8", copy=False)
            stream.write(memoryview(block).cast("B"))  # a sink sees bytes


# ---------------------------------------------------------------------------
# simplification and multiplicity accounting

def _packed_pairs(edges: np.ndarray) -> np.ndarray:
    """The non-loop edges as unordered pairs packed ``lo << 32 | hi``."""
    # ids of a Graph lie in [0, 2**32), so the int64 bits read as uint64
    uv = edges.view(np.uint64)
    u = uv[:, 0]
    v = uv[:, 1]
    keys = np.minimum(u, v)
    keys <<= np.uint64(32)
    keys |= np.maximum(u, v)
    return keys[u != v]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """True at the first key of each run of equal keys in sorted ``keys``."""
    # an adjacent difference; never plain np.unique, which on numpy 2.4
    # took 2.6 s for 2e6 keys against 0.05 s with return_counts=True
    first = np.empty(keys.shape, bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _distinct_pairs(edges: np.ndarray):
    """The distinct non-loop unordered pairs, packed ``lo << 32 | hi`` and
    sorted, and the number of non-loop edges."""
    keys = _packed_pairs(edges)
    keys.sort()
    return keys[_run_starts(keys)], keys.shape[0]


def simplify(g: Graph) -> SimpleGraph:
    """Drop loops and merge parallel edges: the sorted distinct pairs and
    the running degree sum they give."""
    pairs = _distinct_pairs(g.edges)[0]
    # a pair adds 1 to the degree of its lo and of its hi end
    deg = np.bincount((pairs >> np.uint64(32)).view(np.int64), minlength=g.n)
    deg += np.bincount((pairs & np.uint64(0xFFFFFFFF)).view(np.int64), minlength=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return SimpleGraph(g.n, indptr, pairs)


def count_multiplicities(g: Graph) -> MultiplicityReport:
    """Count loops and excess parallel edges.

    ``multi_edges`` sums ``occurrences - 1`` over distinct non-loop
    unordered pairs, so every copy beyond the first counts once.
    """
    pairs, nonloop = _distinct_pairs(g.edges)
    return MultiplicityReport(loops=g.num_edges - nonloop,
                              multi_edges=nonloop - pairs.size,
                              total_edges=g.num_edges)
