"""Resampling error estimates for the two attractiveness estimators.

The edge bootstrap resamples the multiset of per-edge degree-pair labels
with replacement at the original size; vertex degrees are NOT recomputed
from the resampled multigraph (only the edge-tail surface is refreshed
against the fixed degree tails).  The alternative reading, rebuilding
topology and recomputing degrees, would couple the two tails and is
deliberately not implemented.  The vertex bootstrap resamples vertices,
rebuilding the degree tail.

Resampling is realized as one multinomial draw over the distinct
categories (degree values, or degree-pair bins), which is exactly
equivalent in distribution to drawing the items one by one and far
cheaper.  Iteration i draws from the i-th spawned child of the master
seed, so a report is reproducible and the estimates of B iterations are
the first B of any longer run with the same seed, whatever number of
worker processes (:func:`pagl._workers.map_seeds`) share the iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._workers import map_seeds
from .fitting import (
    DegreeRange,
    DivergenceError,
    FitResult,
    PairDomain,
    _degree_law,
    _edge_law,
    _fit_rho,
    _pair_index,
    fit_degree,
)
from .stats import (
    DegreeHistogram,
    EdgeDegreeMatrix,
    LogGrid,
    _TailBlock,
    _tail_rho,
    _tail_sums,
    cumulative_degree,
)

__all__ = list(_EXPORTS["bootstrap"])


@dataclass
class BootstrapReport:
    """Per-iteration refitted exponents and their spread.

    ``estimates`` has one entry per iteration in iteration order, NaN
    where the iteration gave no estimate.  ``diverged`` counts the NaN
    entries: refits whose solve did not converge and, for the degree
    target, resamples that leave a grid point of the range with an empty
    tail, which are not refitted.  ``sigma_s2`` is the mean squared
    deviation from the original estimate of the other entries only.
    """

    target: str
    original: FitResult
    estimates: np.ndarray
    sigma_s2: float
    iterations: int
    diverged: int

    @property
    def sigma_s(self) -> float:
        return float(np.sqrt(self.sigma_s2))


def _check(B):
    if B < 1:
        raise ValueError(f"bootstrap needs at least 1 iteration, got B={B}")


def _finish(target, original, one, B, seed, threads):
    """Run ``one`` for the B iterations and report their spread."""
    estimates = map_seeds(one, np.random.SeedSequence(seed).spawn(B), threads)
    valid = estimates[~np.isnan(estimates)]
    if valid.size == 0:
        raise DivergenceError(f"all {estimates.size} bootstrap refits diverged")
    sigma_s2 = float(np.mean((valid - original.a) ** 2))
    return BootstrapReport(
        target=target,
        original=original,
        estimates=estimates,
        sigma_s2=sigma_s2,
        iterations=int(estimates.size),
        diverged=int(np.isnan(estimates).sum()),
    )


def bootstrap_vertices(hist: DegreeHistogram, rng: DegreeRange, B: int = 1000,
                       seed: int = 0, threads: int = 1) -> BootstrapReport:
    """Resample vertices with replacement and refit the degree model B
    times, the iterations split over ``threads`` processes."""
    _check(B)
    original = fit_degree(cumulative_degree(hist), rng)
    if not original.converged:
        raise DivergenceError("degree fit on the original data did not converge")
    n = hist.n_vertices
    # the isolated vertices are the last category
    p = np.append(hist.counts, hist.isolated) / n
    # positions in the suffix sums of the strict tails above the grid points
    above = np.searchsorted(hist.degrees, rng.grid_points, side="right")
    law = _degree_law(rng)

    def one(stream):
        cnt = stream.multinomial(n, p)
        y = _tail_sums(cnt[:-1])[above].astype(np.float64)
        if np.any(y <= 0):
            return np.nan
        return law.refit(y, original)

    return _finish("degrees", original, one, B, seed, threads)


def bootstrap_edges(hist: DegreeHistogram, matrix: EdgeDegreeMatrix,
                    domain: PairDomain, grid: LogGrid, B: int = 1000,
                    seed: int = 0, threads: int = 1) -> BootstrapReport:
    """Resample the edge degree-pair multiset and refit the edge model B
    times against the original degree tails, the iterations split over
    ``threads`` processes.

    The original fit reads its edge tails from the same block of bins as
    the refits, summed by the strict-tail routine ``rho_surface`` uses
    (:class:`pagl.stats._TailBlock`), and its degree tails from the
    histogram; the sums are integers, so it is ``fit_edges`` on
    ``rho_surface(hist, matrix, grid)`` bit for bit.
    """
    _check(B)
    points = grid.points
    k = points.size
    size = (k + 1) * (k + 1)
    flat = (np.searchsorted(points, matrix.d1) * (k + 1)
            + np.searchsorted(points, matrix.d2))
    # one category per (threshold bin, ordered weight), weight-1 cells
    # first; an edge drawn from a category adds its weight to the bin
    keys, category = np.unique(matrix.ordered_weight() * size + flat,
                               return_inverse=True)
    cat_edges = np.bincount(category, weights=matrix.x)

    # domain pairs satisfy d1 > d2, so the needed tail entries sit at
    # index pairs (i, j) with i > j and no symmetrization is required
    i_idx, j_idx = _pair_index(points, domain)
    rows, i = np.unique(i_idx, return_inverse=True)
    cols, j = np.unique(j_idx, return_inverse=True)
    block = _TailBlock(keys % size // (k + 1), keys % (k + 1), rows, cols,
                       (i, j))
    del flat, category, i_idx, j_idx, i, j
    cat_weight = keys // size
    tails = cumulative_degree(hist)
    rho, denom = _tail_rho(block.tails(cat_edges * cat_weight),
                           tails.at(domain.d1), tails.at(domain.d2))
    original = _fit_rho(rho, domain)
    del rho
    if not original.converged:
        raise DivergenceError("edge fit on the original data did not converge")

    p = cat_edges / cat_edges.sum()
    law = _edge_law(domain)
    num_edges = matrix.total_edges

    def one(stream):
        cnt = stream.multinomial(num_edges, p)
        return law.refit(block.tails(cnt * cat_weight) / denom, original)

    return _finish("edges", original, one, B, seed, threads)
