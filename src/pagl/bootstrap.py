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
the first B of any longer run with the same seed.  The iterations are cut
into ``threads`` contiguous chunks run by as many processes (see
:func:`_refits`); the estimates do not depend on the cut.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

import numpy as np

from .fitting import (
    DegreeRange,
    DivergenceError,
    FitResult,
    PairDomain,
    _degree_law,
    _edge_law,
    _pair_index,
    fit_degree,
    fit_edges,
)
from .stats import (
    DegreeHistogram,
    EdgeDegreeMatrix,
    LogGrid,
    _suffix2d,
    _tail_sums,
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


def _check(B, threads):
    if B < 1:
        raise ValueError(f"bootstrap needs at least 1 iteration, got B={B}")
    if threads < 1:
        raise ValueError(f"bootstrap needs at least 1 thread, got {threads}")


def _run_child(run, chunk, read, write):
    """Send ``run(chunk)``'s bytes down ``write`` and exit, 1 on any error,
    without returning into the caller's code."""
    status = 1
    try:
        os.close(read)
        with open(write, "wb") as pipe:
            pipe.write(run(chunk).tobytes())
        status = 0
    finally:
        os._exit(status)


def _refits(one, B, seed, threads):
    """``one(generator)`` for every iteration, as float64 in iteration order.

    The B iterations are cut into ``min(threads, B)`` contiguous chunks.
    This process runs the first; ``os.fork`` children run the others and
    send their estimates back through a pipe, so nothing is pickled and
    the children share the caller's pages.  Every child is reaped before
    this returns or raises; one that fails or sends short data raises
    ChildProcessError.  Without ``os.fork`` one chunk runs here.  Forking
    is safe only from a process running no other thread.
    """
    seeds = np.random.SeedSequence(seed).spawn(B)

    def run(chunk):
        return np.fromiter((one(np.random.default_rng(s)) for s in chunk),
                           np.float64, len(chunk))

    parts = min(threads, B) if hasattr(os, "fork") else 1
    cuts = [B * w // parts for w in range(parts + 1)]
    running, pipes = [], []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _run_child(run, seeds[lo:hi], read, write)
            running.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        chunks = [run(seeds[:cuts[1]])]
        for lo, hi, pipe in zip(cuts[1:], cuts[2:], pipes):
            data = pipe.read()
            pid = running.pop(0)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status != 0 or len(data) != 8 * (hi - lo):
                raise ChildProcessError(
                    f"bootstrap worker for iterations {lo}..{hi - 1} exited "
                    f"with status {status} after sending {len(data) // 8} "
                    f"of {hi - lo} estimates")
            chunks.append(np.frombuffer(data, np.float64))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return np.concatenate(chunks)


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
    """Resample vertices with replacement and refit the degree model B
    times, the iterations split over ``threads`` processes."""
    _check(B, threads)
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

    return _finish("degrees", original, _refits(one, B, seed, threads))


class _TailBlock:
    """Strict 2-D tails at grid index pairs, from the block of bins they read.

    The tail at pair (i, j) sums the weights of the cells whose row bin
    exceeds i and whose column bin exceeds j, which is
    ``_suffix2d(h)[1:, 1:][i, j]`` over the full (k+1)-square histogram
    ``h``.  Only the rows i + 1 and the columns j + 1 of the pairs bound
    such a sum, so the grid collapses to one row per distinct i and one
    column per distinct j: a cell lands in the row and column of the last
    bound at or below its bins, or is dropped when it sits below every
    row or column.  Summing integer-valued weights is exact in any order,
    so the tails equal the full grid's bit for bit.
    """

    def __init__(self, row_bin, col_bin, i, j):
        rows, cols = np.unique(i) + 1, np.unique(j) + 1
        row = np.searchsorted(rows, row_bin, side="right") - 1
        col = np.searchsorted(cols, col_bin, side="right") - 1
        self.kept = (row >= 0) & (col >= 0)
        self.cell = (row * cols.size + col)[self.kept]
        self.shape = rows.size, cols.size
        self.at = np.searchsorted(rows, i + 1), np.searchsorted(cols, j + 1)

    def tails(self, weights):
        """The tails of per-cell ``weights`` at every pair, as float64."""
        h = np.bincount(self.cell, weights=weights[self.kept],
                        minlength=self.shape[0] * self.shape[1])
        return _suffix2d(h.reshape(self.shape))[self.at]


def bootstrap_edges(hist: DegreeHistogram, matrix: EdgeDegreeMatrix,
                    domain: PairDomain, grid: LogGrid, B: int = 1000,
                    seed: int = 0, threads: int = 1) -> BootstrapReport:
    """Resample the edge degree-pair multiset and refit the edge model B
    times against the original degree tails, the iterations split over
    ``threads`` processes."""
    _check(B, threads)
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

    # domain pairs satisfy d1 > d2, so the needed tail entries sit at
    # index pairs (i, j) with i > j and no symmetrization is required
    i_idx, j_idx = _pair_index(points, domain)
    block = _TailBlock(keys % size // (k + 1), keys % (k + 1), i_idx, j_idx)
    cat_weight = keys // size
    denom = surface.cum_deg[i_idx].astype(np.float64) * surface.cum_deg[j_idx]
    law = _edge_law(domain)
    num_edges = matrix.total_edges

    def one(stream):
        cnt = stream.multinomial(num_edges, p)
        return law.refit(block.tails(cnt * cat_weight) / denom, original)

    return _finish("edges", original, _refits(one, B, seed, threads))
