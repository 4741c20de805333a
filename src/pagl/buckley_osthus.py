"""Attachment-chain random graphs with tunable initial attractiveness.

The single-edge chain adds vertex s with one edge whose other endpoint i
is drawn with probability proportional to deg(i)+a-1 for existing
vertices and a for the new vertex itself; the first step is a self-loop.
An m-block merge (vertex v -> v // m) turns a chain of m*n steps into the
m-edges-per-vertex graph on n vertices.  a = 1 gives the classic
uniform-over-endpoints special case.

Randomness comes from numpy's PCG64; batch generation derives one child
stream per sample via SeedSequence.spawn, so sample k is reproducible in
isolation.  Generation itself consumes fixed-size blocks of uniforms
(see _kernels), making outputs identical with or without numba.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .graphs import Graph

__all__ = [
    "BOParams",
    "generate_bo_chain",
    "merge_blocks",
    "generate_bo",
    "generate_bo_samples",
]

# ids and degree counters are 32-bit; the chain length m*n must fit
MAX_CHAIN = 2**31 - 1

# uniforms are drawn in fixed blocks of this size (r block then q block);
# changing it would change generated graphs, so it is a constant
_BLOCK = 1 << 20


@dataclass(frozen=True)
class BOParams:
    """Parameters of the merged attachment graph: a > 0, m >= 1, n >= 1."""

    a: float
    m: int
    n: int
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"attractiveness a must be a finite positive real, got {self.a!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"edges per vertex m must be an integer >= 1, got {self.m!r}")
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ValueError(f"vertex count n must be an integer >= 1, got {self.n!r}")
        if self.m * self.n > MAX_CHAIN:
            raise ValueError(
                f"m*n = {self.m * self.n} exceeds the 32-bit id limit {MAX_CHAIN}"
            )


def generate_bo_chain(a: float, n: int, seed) -> Graph:
    """Run the single-edge chain for n steps; returns n vertices, n edges.

    Edge k is (k, target_k); edge 0 is the forced loop (0, 0).  ``seed``
    may be an int or a SeedSequence.  Deterministic across platforms and
    with or without numba.
    """
    if not (isinstance(n, int) and 1 <= n <= MAX_CHAIN):
        raise ValueError(f"chain length must be an integer in [1, {MAX_CHAIN}], got {n!r}")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"attractiveness a must be a finite positive real, got {a!r}")
    rng = np.random.default_rng(seed)
    targets = np.empty(n, dtype=np.int32)
    s0 = 0
    while s0 < n:
        length = min(_BLOCK, n - s0)
        r = rng.random(length)
        q = rng.random(length)
        _kernels.chain_step(targets, s0, r, q, float(a))
        s0 += length
    edges = np.empty((n, 2), dtype=np.int64)
    edges[:, 0] = np.arange(n, dtype=np.int64)
    edges[:, 1] = targets
    return Graph(n, edges)


def merge_blocks(g: Graph, m: int) -> Graph:
    """Map every endpoint v to v // m; g.n must be divisible by m."""
    if not (isinstance(m, int) and m >= 1):
        raise ValueError(f"block size m must be an integer >= 1, got {m!r}")
    if g.n % m != 0:
        raise ValueError(f"vertex count {g.n} is not divisible by m={m}")
    return Graph(g.n // m, g.edges // m)


def generate_bo(params: BOParams) -> Graph:
    """Chain of m*n steps merged in m-blocks: n vertices, m*n edges."""
    chain = generate_bo_chain(params.a, params.m * params.n, params.seed)
    return merge_blocks(chain, params.m)


def generate_bo_samples(params: BOParams, num_samples: int, threads: int = 1) -> list:
    """Generate independent samples; sample k uses the k-th spawned stream.

    Output order and content depend only on (params, num_samples), not on
    ``threads``.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be non-negative")
    children = np.random.SeedSequence(params.seed).spawn(num_samples)

    def one(child):
        chain = generate_bo_chain(params.a, params.m * params.n, child)
        return merge_blocks(chain, params.m)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, children))
    return [one(child) for child in children]
