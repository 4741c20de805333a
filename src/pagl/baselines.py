"""Comparison generators: configuration model on a power-law degree
sequence, and Holme-Kim preferential attachment with triad formation.

The configuration model keeps whatever loops and parallel edges the stub
matching produces; simplification is a downstream concern shared with
every other model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .buckley_osthus import MAX_CHAIN
from .graphs import Graph

__all__ = [
    "GDSParams",
    "HKParams",
    "power_law_cap",
    "sample_power_law_degrees",
    "generate_configuration",
    "generate_holme_kim",
]

_HK_BLOCK = 1 << 20


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


def generate_holme_kim(params: HKParams) -> Graph:
    """Grow the triad-formation graph from a complete seed on m+1 vertices.

    Output is simple by construction, with exactly
    m*(n-m-1) + m*(m+1)/2 edges.  Deterministic given the seed, with or
    without numba (see _kernels.hk_place for the buffering protocol).
    """
    n, m = params.n, params.m
    n0 = m + 1
    e0 = m * n0 // 2
    num_edges = e0 + m * (n - n0)

    edges = np.empty((num_edges, 2), dtype=np.int64)
    ep = np.empty(2 * num_edges, dtype=np.int32)
    deg = np.zeros(n, dtype=np.int32)
    head = np.full(n, -1, dtype=np.int32)
    tail = np.full(n, -1, dtype=np.int32)
    nxt = np.full(2 * num_edges, -1, dtype=np.int32)
    adst = np.empty(2 * num_edges, dtype=np.int32)
    pending = np.empty(m, dtype=np.int32)

    su, sv = np.triu_indices(n0, k=1)
    edges[:e0, 0] = su
    edges[:e0, 1] = sv
    ep[: 2 * e0] = edges[:e0].ravel()
    deg[:n0] = m
    for k in range(e0):
        for x, y, slot in ((su[k], sv[k], 2 * k), (sv[k], su[k], 2 * k + 1)):
            adst[slot] = y
            if head[x] < 0:
                head[x] = slot
            else:
                nxt[tail[x]] = slot
            tail[x] = slot

    rng = np.random.default_rng(params.seed)
    buf = rng.random(_HK_BLOCK)
    v, ec = n0, e0
    while v < n:
        v, consumed, ec = _kernels.hk_place(
            edges, ep, deg, head, tail, nxt, adst,
            pending, v, n, m, float(params.p_t), buf, ec,
        )
        if v < n:
            # out of draws mid-vertex: keep the unread tail, append a
            # fresh block, and re-enter at the same vertex
            buf = np.concatenate([buf[consumed:], rng.random(_HK_BLOCK)])
    return Graph(n, edges)
