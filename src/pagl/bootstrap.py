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
cheaper.  Iteration i uses the i-th spawned child of the master seed, so
reports are reproducible and independent of thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fitting import (
    DegreeRange,
    DivergenceError,
    FitResult,
    PairDomain,
    _fit_edge_values,
    fit_degree,
    fit_edges,
)
from .stats import (
    DegreeHistogram,
    EdgeDegreeMatrix,
    LogGrid,
    TailCounts,
    _suffix2d,
    cumulative_degree,
    rho_surface,
)

__all__ = ["BootstrapReport", "bootstrap_vertices", "bootstrap_edges"]


@dataclass
class BootstrapReport:
    """Per-iteration refitted exponents and their spread.

    ``estimates`` has one entry per iteration in iteration order, NaN
    where the refit diverged; ``sigma_s2`` is the mean squared deviation
    of the non-diverged estimates from the original estimate.
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


def _run_iterations(one, B, threads):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(one, range(B))), dtype=np.float64)
    return np.array([one(i) for i in range(B)], dtype=np.float64)


def _finish(target, original, estimates):
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
    """Resample vertices with replacement and refit the degree model B times."""
    original = fit_degree(cumulative_degree(hist), rng)
    if not original.converged:
        raise DivergenceError("degree fit on the original data did not converge")
    degrees, counts = hist.arrays()
    cats = np.append(counts, hist.isolated).astype(np.float64)
    n = hist.n_vertices
    p = cats / n
    children = np.random.SeedSequence(seed).spawn(B)

    def one(i):
        cnt = np.random.default_rng(children[i]).multinomial(n, p)
        suffix = np.zeros(degrees.size + 1, dtype=np.int64)
        if degrees.size:
            suffix[:-1] = cnt[:-1][::-1].cumsum()[::-1]
        try:
            refit = fit_degree(TailCounts(degrees, suffix), rng,
                               initial=(original.a, original.b))
        except ValueError:
            return np.nan
        return refit.a if refit.converged else np.nan

    return _finish("degrees", original, _run_iterations(one, B, threads))


def bootstrap_edges(hist: DegreeHistogram, matrix: EdgeDegreeMatrix,
                    domain: PairDomain, grid: LogGrid, B: int = 1000,
                    seed: int = 0, threads: int = 1) -> BootstrapReport:
    """Resample the edge degree-pair multiset and refit the edge model B
    times against the original degree tails."""
    surface = rho_surface(hist, matrix, grid)
    original = fit_edges(surface, domain)
    if not original.converged:
        raise DivergenceError("edge fit on the original data did not converge")

    points = grid.points
    k = points.size
    size = (k + 1) * (k + 1)
    flat = (np.searchsorted(points, matrix.d1) * (k + 1)
            + np.searchsorted(points, matrix.d2))
    # one category per (threshold bin, ordered weight), weight-1 cells
    # first; an edge drawn from a category adds its weight to the bin
    keys, category = np.unique(matrix.ordered_weight() * size + flat,
                               return_inverse=True)
    p = np.bincount(category, weights=matrix.x)
    p /= p.sum()
    cat_bin, cat_weight = keys % size, keys // size

    # domain pairs satisfy d1 > d2, so the needed tail entries sit at
    # index pairs (i, j) with i > j and no symmetrization is required
    i_idx = np.searchsorted(points, domain.d1)
    j_idx = np.searchsorted(points, domain.d2)
    denom = surface.cum_deg[i_idx].astype(np.float64) * surface.cum_deg[j_idx]
    num_edges = matrix.total_edges
    children = np.random.SeedSequence(seed).spawn(B)

    def one(it):
        cnt = np.random.default_rng(children[it]).multinomial(num_edges, p)
        h = np.bincount(cat_bin, weights=cnt * cat_weight, minlength=size)
        tail = _suffix2d(h.reshape(k + 1, k + 1))[1:, 1:]
        rho = tail[i_idx, j_idx] / denom
        refit = _fit_edge_values(rho, domain.d1, domain.d2,
                                 initial=(original.a, original.b))
        return refit.a if refit.converged else np.nan

    return _finish("edges", original, _run_iterations(one, B, threads))
