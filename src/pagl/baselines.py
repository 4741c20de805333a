"""Comparison generators: configuration model on a power-law degree
sequence, and Holme-Kim preferential attachment with triad formation.

The configuration model keeps whatever loops and parallel edges the stub
matching produces; simplification is a downstream concern shared with
every other model.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._limits import MAX_CHAIN
from .graphs import Graph

__all__ = list(_EXPORTS["baselines"])

_HK_BLOCK = 1 << 16


@dataclass(frozen=True)
class GDSParams:
    """Power-law degree sequence: P(d) proportional to d**-gamma on [1, cap].

    ``target_edges=None`` keeps the natural cutoff n**(1/(gamma-1))
    unadjusted; otherwise the cutoff is lowered until the expected edge
    count n*E[d]/2 lands within 5% of the target.
    """

    n: int
    gamma: float
    target_edges: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"vertex count n must be an integer >= 1, got {self.n!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 1):
            raise ValueError(f"exponent gamma must be > 1, got {self.gamma!r}")
        if self.target_edges is not None and self.target_edges < 1:
            raise ValueError("target_edges must be positive when given")


@dataclass(frozen=True)
class HKParams:
    """Holme-Kim: n vertices, m edges per new vertex, triad probability p_t."""

    n: int
    m: int
    p_t: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"edges per vertex m must be an integer >= 1, got {self.m!r}")
        if not (isinstance(self.n, int) and self.n >= self.m + 1):
            raise ValueError(
                f"vertex count n must be an integer >= m+1 = {self.m + 1}, got {self.n!r}"
            )
        if not (0.0 <= self.p_t <= 1.0):
            raise ValueError(f"triad probability must lie in [0, 1], got {self.p_t!r}")
        edges = self.m * (self.n - self.m - 1) + self.m * (self.m + 1) // 2
        if 2 * edges > MAX_CHAIN:
            raise ValueError(
                f"2 x {edges} edge slots exceed the 32-bit slot limit {MAX_CHAIN}")


def _truncated_mean(gamma: float, cap: int) -> float:
    d = np.arange(1, cap + 1, dtype=np.float64)
    w = d**-gamma
    return float((d * w).sum() / w.sum())


def power_law_cap(params: GDSParams) -> int:
    """Degree cutoff actually used by :func:`sample_power_law_degrees`.

    Starts from the natural cutoff n**(1/(gamma-1)) and, when a target
    edge count is requested, bisects downward until the expected edge
    count n*E[d]/2 is as close to the target as integer cutoffs allow.
    Raises ValueError if no cutoff gets within 5%.
    """
    # compared in logs: the cap itself can overflow a float
    if math.log(params.n) / (params.gamma - 1.0) > math.log(MAX_CHAIN):
        raise ValueError(
            f"degree cap n**(1/(gamma-1)) for n={params.n}, "
            f"gamma={params.gamma} exceeds {MAX_CHAIN}")
    cap = max(1, int(params.n ** (1.0 / (params.gamma - 1.0))))
    if params.target_edges is None:
        return cap
    target = float(params.target_edges)

    def expected_edges(c):
        return params.n * _truncated_mean(params.gamma, c) / 2.0

    if expected_edges(cap) <= 1.05 * target:
        best = cap  # natural cutoff does not overshoot; nothing to lower
    else:
        lo, hi = 1, cap  # expected_edges(lo) <= target*1.05 < expected_edges(hi)
        if expected_edges(1) > 1.05 * target:
            raise ValueError(
                f"target_edges={params.target_edges} infeasible: even cap=1 "
                f"gives {expected_edges(1):.0f} expected edges"
            )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if expected_edges(mid) > target:
                hi = mid
            else:
                lo = mid
        best = min((lo, hi), key=lambda c: abs(expected_edges(c) - target))
    if abs(expected_edges(best) - target) > 0.05 * target:
        raise ValueError(
            f"target_edges={params.target_edges} infeasible for gamma={params.gamma}, "
            f"n={params.n}: closest achievable expected edge count is "
            f"{expected_edges(best):.0f}"
        )
    return best


def sample_power_law_degrees(params: GDSParams) -> np.ndarray:
    """Draw n i.i.d. degrees from the truncated power law.

    If the sum comes out odd, one uniformly chosen entry is incremented.
    """
    cap = power_law_cap(params)
    rng = np.random.default_rng(params.seed)
    support = np.arange(1, cap + 1, dtype=np.int64)
    weights = support.astype(np.float64) ** -params.gamma
    degrees = rng.choice(support, size=params.n, p=weights / weights.sum())
    if degrees.sum() % 2 == 1:
        degrees[rng.integers(params.n)] += 1
    return degrees


def generate_configuration(degrees, seed) -> Graph:
    """Uniform stub matching: shuffle the stub list, pair consecutively."""
    degrees = np.asarray(degrees, dtype=np.int64)
    if degrees.ndim != 1 or (degrees < 0).any():
        raise ValueError("degrees must be a 1-D sequence of non-negative integers")
    total = int(degrees.sum())
    if total % 2 == 1:
        raise ValueError(f"degree sum {total} is odd; no perfect stub matching exists")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(degrees.shape[0], dtype=np.int64), degrees)
    edges = rng.permutation(stubs).reshape(-1, 2)
    return Graph(degrees.shape[0], edges)


def _uniforms(rng):
    """The generator's uniforms in stream order, drawn _HK_BLOCK at a time."""
    while True:
        yield from rng.random(_HK_BLOCK).tolist()


def generate_holme_kim(params: HKParams) -> Graph:
    """Grow the triad-formation graph from a complete seed on m+1 vertices.

    Per new vertex v, m distinct targets are chosen: the first by a
    degree-preferential draw (uniform index into the endpoint list ``ep``),
    each later one with probability p_t by a triad step (a uniformly drawn
    neighbour of the previous target not yet chosen, realized by rejection
    with at most 64*m + 64 attempts) and otherwise preferentially.  A
    candidate already chosen this round is redrawn; v itself cannot come
    up, since its edges are committed only after all m targets are known.

    Every draw (triad coin, neighbour index, endpoint index) reads the next
    uniform of one seeded stream, taken in blocks of ``_HK_BLOCK``; numpy
    block draws concatenate to the same stream, so the graph does not
    depend on the block size.  An index int(x*d) needs no clip: for a
    double x < 1 and d <= 2**53 the rounded product stays below d.
    Neighbours are listed in insertion order.  Output is simple by
    construction, with exactly m*(n-m-1) + m*(m+1)/2 edges.
    """
    n, m, p_t = params.n, params.m, float(params.p_t)
    n0 = m + 1
    draw = _uniforms(np.random.default_rng(params.seed)).__next__
    ep = array("i")
    nbrs = [array("i") for _ in range(n)]

    def link(v, u):
        ep.append(v)
        ep.append(u)
        nbrs[v].append(u)
        nbrs[u].append(v)

    for v in range(n0):
        for u in range(v + 1, n0):
            link(v, u)
    tries = 64 * m + 64
    for v in range(n0, n):
        pending = []
        for k in range(m):
            u = -1
            if k > 0 and draw() < p_t:
                adj = nbrs[pending[-1]]
                d = len(adj)
                for _ in range(tries):
                    w = adj[int(draw() * d)]
                    if w not in pending:
                        u = w
                        break
            if u < 0:
                e = len(ep)
                while True:
                    u = ep[int(draw() * e)]
                    if u not in pending:
                        break
            pending.append(u)
        for u in pending:
            link(v, u)
    edges = np.frombuffer(ep, dtype=np.int32).reshape(-1, 2).astype(np.int64)
    return Graph(n, edges)
