"""Attachment-chain random graphs with tunable initial attractiveness.

The single-edge chain adds vertex s with one edge whose other endpoint i
is drawn with probability proportional to deg(i)+a-1 for existing
vertices and a for the new vertex itself; the first step is a self-loop.
An m-block merge (vertex v -> v // m) turns a chain of m*n steps into the
m-edges-per-vertex graph on n vertices.  a = 1 gives the classic
uniform-over-endpoints special case.

Randomness comes from numpy's PCG64; batch generation derives one child
stream per sample via SeedSequence.spawn, so sample k is reproducible in
isolation, and batches are spread over worker processes by
:func:`pagl._workers.map_seeds`.  Generation consumes fixed-size blocks of
uniforms, and each block is resolved by whole-array numpy operations (see
_resolve_block), so no per-step Python loop runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._limits import MAX_CHAIN
from ._workers import map_seeds
from .graphs import Graph

__all__ = list(_EXPORTS["buckley_osthus"])

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


def _resolve_block(targets, s0: int, rq, a: float) -> None:
    """Fill ``targets[s0:s0+len(rq)//2]`` given the resolved ``targets[:s0]``.

    Step s (0-based new vertex id) attaches to target i with probability
    (deg(i)+a-1)/((a+1)(s+1)-1) for existing i and a/((a+1)(s+1)-1) for
    i = s.  Sampling splits that mass into a uniform urn (weight a per
    vertex) and an excess urn realized by ``targets[:s]`` itself, in which
    vertex v appears deg(v)-1 times.  One (r, q) pair is consumed per step:
    r picks the urn, q indexes into it; step 0 is the forced self-loop.
    ``rq`` (the r block, then the q block) is scratch, freed before jumping.

    A uniform draw is final at once.  An excess draw copies the target of
    an earlier step, so the block is a forest of backward pointers whose
    roots are uniform draws or steps before s0.  Unresolved steps hold
    their pointer p as ~p (negative), and every round replaces each one by
    what its pointer holds: a root's target ends the walk, another pointer
    doubles its length (Wyllie's pointer jumping), so a chain of depth h
    takes about log2(h) rounds.
    """
    r, q = np.split(rq, 2)
    t = np.arange(s0 + 1.0, s0 + r.shape[0] + 1.0)  # t = s + 1
    mass = np.multiply(t, a + 1.0)
    mass -= 1.0
    mass *= r
    copy = mass >= np.multiply(t, a, out=r)
    del mass
    if s0 == 0:
        copy[0] = False
    t -= copy  # urn size: s + 1 for a uniform draw, s for a copy
    q *= t
    t -= 1.0  # the sequential sampler's clip; q < 1 keeps q * t below t
    np.minimum(q, t, out=q)
    block = targets[s0:s0 + r.shape[0]]
    block[:] = q
    block ^= -copy.view(np.int8)  # p -> ~p on copies
    pending = copy.nonzero()[0]
    del rq, r, q, t, copy
    while pending.shape[0]:
        held = targets[~block[pending]]
        block[pending] = held
        pending = pending[held < 0]


def generate_bo_chain(a: float, n: int, seed) -> Graph:
    """Run the single-edge chain for n steps; returns n vertices, n edges.

    Edge k is (k, target_k); edge 0 is the forced loop (0, 0).  ``seed``
    may be an int or a SeedSequence.  Deterministic across platforms and
    thread counts.
    """
    if not (isinstance(n, int) and 1 <= n <= MAX_CHAIN):
        raise ValueError(f"chain length must be an integer in [1, {MAX_CHAIN}], got {n!r}")
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"attractiveness a must be a finite positive real, got {a!r}")
    rng = np.random.default_rng(seed)
    targets = np.empty(n, dtype=np.int32)
    for s0 in range(0, n, _BLOCK):
        _resolve_block(targets, s0, rng.random(2 * min(_BLOCK, n - s0)),
                       float(a))
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
    """Chain of m*n steps merged in m-blocks, in place: n vertices, m*n edges."""
    edges = generate_bo_chain(params.a, params.m * params.n, params.seed).edges
    return Graph(params.n, np.floor_divide(edges, params.m, out=edges))


def generate_bo_samples(params: BOParams, num_samples: int, threads: int = 1) -> list:
    """Generate independent samples; sample k uses the k-th spawned stream.

    The samples are spread over ``threads`` worker processes; output order
    and content depend only on (params, num_samples), not on ``threads``.
    The samples' edge arrays are views into one stacked array.
    """
    if num_samples < 0:
        raise ValueError("num_samples must be non-negative")
    children = np.random.SeedSequence(params.seed).spawn(num_samples)

    def one(stream):
        chain = generate_bo_chain(params.a, params.m * params.n, stream)
        return merge_blocks(chain, params.m).edges

    return [Graph(params.n, e) for e in map_seeds(one, children, threads)]
