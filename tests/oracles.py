"""Reference implementations that the tests check the library against.

They are slow, direct transcriptions of the definitions: the exact
per-step attachment law of the chain, the chain's sampler run one step at
a time, the Holme-Kim generator run one draw at a time, the ordered (both
orientations) form of the edge-degree table with its row sums, and the
strict two-sided edge tail evaluated cell by cell (over degrees, and over
bin indices at grid pairs), the text edge-list reader, writer and
simplification as per-line and lexsort code, and the row formatters the
library used before its byte-table formatter: one ``%`` operation over
all rows of a block, and a digit table of edge ids.  Dict views of the
library's tables and graphs serve the small-case assertions, and
:func:`assert_no_children` checks that no worker process outlived its
call.
"""

import os
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import pytest

from pagl.graphs import Graph, GraphFormatError, GraphValidationError, SimpleGraph


@dataclass
class AttachmentState:
    """Chain state after t completed steps.

    ``degrees[v]`` is the multigraph degree (a loop counts 2) and
    ``excess_list`` holds vertex v exactly deg(v)-1 times, so after step t
    the degree sum is 2t and the list has t entries.
    """

    t: int = 0
    degrees: list = field(default_factory=list)
    excess_list: list = field(default_factory=list)

    def apply_step(self, target: int) -> None:
        """Add vertex t with an edge to ``target`` (== t gives a loop)."""
        s = self.t
        if not 0 <= target <= s:
            raise ValueError(f"target {target} out of range for step {s + 1}")
        self.degrees.append(1)
        self.degrees[target] += 1
        self.excess_list.append(target)
        self.t = s + 1


def attachment_distribution(state: AttachmentState, a):
    """Target distribution for the next chain step, as a length-(t+1) list.

    Entry s < t is (deg(s)+a-1)/((a+1)(t+1)-1); the last entry is the new
    vertex's own mass a over the same denominator.  Exact when ``a`` is a
    Fraction: the entries then sum to 1 as rationals.
    """
    if a <= 0:
        raise ValueError("attractiveness a must be positive")
    t = state.t + 1
    denom = (a + 1) * t - 1
    probs = [(state.degrees[s] + a - 1) / denom for s in range(t - 1)]
    probs.append(a / denom)
    return probs


def chain_targets(r, q, a, prefix=()):
    """Targets of the chain, one step per (r, q) pair, after ``prefix``.

    Step s draws from the uniform urn (weight a per vertex, s+1 vertices)
    when r * ((a+1)(s+1) - 1) < (s+1) a and takes index int(q (s+1)),
    else copies the target of step int(q s); both indices are clipped to
    their urn.  Step 0 is the forced loop.
    """
    targets = list(prefix)
    for rk, qk in zip(np.asarray(r).tolist(), np.asarray(q).tolist()):
        s = len(targets)
        t = s + 1.0
        if s == 0:
            targets.append(0)
        elif rk * ((a + 1.0) * t - 1.0) < t * a:
            targets.append(min(int(qk * t), s))
        else:
            targets.append(targets[min(int(qk * s), s - 1)])
    return targets


def holme_kim_edges(n, m, p_t, seed):
    """Holme-Kim edges as an (E, 2) int64 array, one ``rng.random()`` per draw.

    The seed graph is complete on vertices 0..m.  Each later vertex v picks
    m distinct earlier vertices: the first from a uniformly drawn endpoint
    of the edge list, each later one, when a coin falls below p_t, from a
    uniformly drawn neighbour of the previous pick (at most 64*m + 64
    attempts), else like the first.  A vertex already picked is redrawn.
    Neighbours are listed in the order their edges were added.
    """
    rng = np.random.default_rng(seed)
    edges = [(u, w) for u in range(m + 1) for w in range(u + 1, m + 1)]
    nbrs = [[] for _ in range(n)]
    for u, w in edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    for v in range(m + 1, n):
        picks = []
        for k in range(m):
            pick = None
            if k > 0 and rng.random() < p_t:
                adj = nbrs[picks[-1]]
                for _ in range(64 * m + 64):
                    w = adj[int(rng.random() * len(adj))]
                    if w not in picks:
                        pick = w
                        break
            while pick is None:
                e, side = divmod(int(rng.random() * 2 * len(edges)), 2)
                if edges[e][side] not in picks:
                    pick = edges[e][side]
            picks.append(pick)
        for u in picks:
            edges.append((v, u))
            nbrs[v].append(u)
            nbrs[u].append(v)
    return np.array(edges, dtype=np.int64)


def histogram_dict(h) -> dict:
    """Vertex count by degree, with a 0 entry only if some are isolated."""
    out = {0: h.isolated} if h.isolated else {}
    out.update(zip(h.degrees.tolist(), h.counts.tolist()))
    return out


def tails_dict(t) -> dict:
    """Strict tail count at 0 and at every degree of the evaluator."""
    return {0: int(t.at(0)), **{d: int(t.at(d)) for d in t.degrees.tolist()}}


def cells_dict(mat) -> dict:
    """The unordered edge-degree table as {(d1, d2): x}."""
    return {(int(a), int(b)): int(w) for a, b, w in zip(mat.d1, mat.d2, mat.x)}


def dnn_dict(prof) -> dict:
    """The neighbor-degree profile as {d: d_nn(d)}."""
    return {int(a): float(b) for a, b in zip(prof.d, prof.dnn)}


def adjacency(s) -> dict:
    """Neighbor lists of a simple graph as {v: [sorted neighbors]}, read
    from its packed pairs."""
    out = {v: [] for v in range(s.n)}
    for key in s.pairs.tolist():
        lo, hi = key >> 32, key & 0xFFFFFFFF
        out[lo].append(hi)
        out[hi].append(lo)
    return {v: sorted(nbrs) for v, nbrs in out.items()}


def ordered_cells(mat) -> dict:
    """X(d1, d2) over ordered pairs: both orientations of every cell, and
    an edge joining two degree-d vertices counted twice in X(d, d)."""
    out = {}
    for (a, b), w in cells_dict(mat).items():
        if a == b:
            out[(a, a)] = 2 * w
        else:
            out[(a, b)] = out[(b, a)] = w
    return out


def row_sums(mat):
    """Sorted degrees d and the ordered row sums sum_d2 X(d, d2)."""
    sums = Counter()
    for (a, _), w in ordered_cells(mat).items():
        sums[a] += w
    d = sorted(sums)
    return np.array(d, dtype=np.int64), np.array([sums[v] for v in d], np.int64)


@dataclass
class TailEdgeCounts:
    """Evaluator of the edge tail X~: pairs (j1 >= j2) with j1 > max(d1,d2)
    and j2 > min(d1,d2), counted with the matrix's symmetric values."""

    hi: np.ndarray
    lo: np.ndarray
    w: np.ndarray  # diagonal cells carry their doubled value

    def at(self, d1, d2):
        d1 = np.asarray(d1)
        d2 = np.asarray(d2)
        a = np.maximum(d1, d2)
        b = np.minimum(d1, d2)
        mask = (self.hi[..., :] > a[..., None]) & (self.lo[..., :] > b[..., None])
        return (mask * self.w).sum(axis=-1)


def cumulative_edges(mat) -> TailEdgeCounts:
    return TailEdgeCounts(mat.d1, mat.d2, np.where(mat.d1 == mat.d2, 2 * mat.x, mat.x))


def strict_tails_at(row_bin, col_bin, weights, i, j) -> np.ndarray:
    """At each index pair (i, j), the sum of ``weights`` over the cells
    whose row bin exceeds i and whose column bin exceeds j."""
    cells = list(zip(row_bin.tolist(), col_bin.tolist(), weights.tolist()))
    return np.array([sum(w for r, c, w in cells if r > a and c > b)
                     for a, b in zip(i.tolist(), j.tolist())], np.float64)


_DECIMAL = re.compile(r"[+-]?[0-9]+\Z")


def _decimal(field: str) -> int:
    """int() of an ASCII decimal with an optional sign; int() alone would
    also take '1_0'."""
    if not _DECIMAL.match(field):
        raise ValueError(field)
    return int(field)


def load_edge_list_lines(text: str) -> Graph:
    """The text edge-list reader as one loop over the lines of ``text``.

    ``#`` starts a comment line, the first ``#n <int>`` comment declares
    the vertex count, blank lines are skipped, and every other line holds
    two ids.  Errors name their 1-based line.
    """
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
                    declared_n = _decimal(parts[1])
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
            u = _decimal(parts[0])
            v = _decimal(parts[1])
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


def save_edge_list_lines(g: Graph, stream) -> None:
    """The text edge-list writer as formatted Python strings."""
    stream.write(f"#n {g.n}\n")
    edges = g.edges
    for lo in range(0, edges.shape[0], 1 << 18):
        block = edges[lo:lo + (1 << 18)].tolist()
        stream.write("".join(f"{u} {v}\n" for u, v in block))


def _field(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def format_block_percent(columns) -> str:
    """Row i of every column, tab-separated, one line per row.

    A numpy column is formatted by its dtype (``repr`` for floats, ``str``
    otherwise), a sequence item by item; all rows go through one ``%``.
    """
    specs, values = [], []
    for column in columns:
        if isinstance(column, np.ndarray):
            kind = column.dtype.kind
            specs.append("%r" if kind == "f" else "%d" if kind in "iu" else "%s")
            values.append(column.tolist())
        else:
            specs.append("%s")
            values.append(map(_field, column))
    line = "\t".join(specs) + "\n"
    return (line * len(columns[0])) % tuple(chain.from_iterable(zip(*values)))


def format_ids_digits(edges: np.ndarray, width: int) -> bytes:
    """``u v\\n`` lines of ``edges`` (ids below 2**32, at most ``width``
    digits) from one digit table over both ids."""
    rows = edges.shape[0]
    cols = 2 * width + 2
    table = np.empty((rows, cols), np.uint8)
    keep = np.ones((rows, cols), bool)
    table[:, width] = ord(" ")
    table[:, -1] = ord("\n")
    for side, first in ((0, 0), (1, width + 1)):
        x = edges[:, side].astype(np.uint32)
        for j in range(width - 1):
            np.greater_equal(x, 10 ** (width - 1 - j), out=keep[:, first + j])
        for j in range(first + width - 1, first - 1, -1):
            q = x // 10
            np.add(x - q * 10, ord("0"), out=table[:, j], casting="unsafe")
            x = q
    return table[keep].tobytes()


def distinct_pairs_lexsort(edges):
    """(lo, hi) of every distinct non-loop pair, lo < hi, in lexicographic
    order: np.unique over the (lo, hi) rows, with no packed key."""
    u = edges[:, 0]
    v = edges[:, 1]
    keep = u != v
    rows = np.stack([np.minimum(u[keep], v[keep]),
                     np.maximum(u[keep], v[keep])], axis=1)
    rows = np.unique(rows, axis=0)
    return rows[:, 0], rows[:, 1]


def simplify_lexsort(g: Graph) -> SimpleGraph:
    """Simple graph of ``g`` from :func:`distinct_pairs_lexsort`."""
    lo, hi = distinct_pairs_lexsort(g.edges)
    counts = np.bincount(np.concatenate([lo, hi]), minlength=g.n)
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    pairs = (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)
    return SimpleGraph(g.n, indptr, pairs)


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
