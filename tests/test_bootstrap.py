import hashlib
import os
import time

import numpy as np
import pytest

from oracles import strict_tails_at
from pagl.bootstrap import _TailBlock, bootstrap_edges, bootstrap_vertices
from pagl.buckley_osthus import BOParams, generate_bo
from pagl.fitting import DivergenceError, _PowerLaw, degree_range, pair_domain
from pagl.graphs import simplify
from pagl.stats import (
    DegreeHistogram,
    _suffix2d,
    degree_histogram,
    edge_degree_matrix,
    log_grid,
)


@pytest.fixture(scope="module")
def bo_tables():
    s = simplify(generate_bo(BOParams(a=0.5, m=3, n=20000, seed=7)))
    hist = degree_histogram(s)
    matrix = edge_degree_matrix(s)
    grid = log_grid(1.01, int(np.diff(s.indptr).max()))
    rng = degree_range(grid, 3, 100)
    return hist, matrix, grid, rng


def digest(rep) -> tuple:
    return hashlib.sha256(rep.estimates.tobytes()).hexdigest(), repr(rep.sigma_s2)


def test_byte_pin(bo_tables):
    # recorded from the thread-pool implementation: the chunked loop
    # draws the same streams and refits to the same bytes, whatever the
    # thread count
    hist, matrix, grid, rng = bo_tables
    vert = bootstrap_vertices(hist, rng, B=40, seed=3)
    edge = bootstrap_edges(hist, matrix, pair_domain(rng, 10.0), grid,
                           B=30, seed=5, threads=2)
    assert digest(vert) == (
        "0ed66b5d31f27c2c640e0eec2c2aab33ff9dfd496f4cb627623051ff5afe6c63",
        "0.0003941984165701887")
    assert digest(edge) == (
        "12986557e223e0ed2b8337ff7a093a240ed13eeb64f6ced1a5c608b85873bddc",
        "0.0002658931930270266")


@pytest.mark.parametrize("B", [0, -3])
def test_rejects_fewer_than_one_iteration(bo_tables, B):
    hist, matrix, grid, rng = bo_tables
    with pytest.raises(ValueError, match="at least 1 iteration"):
        bootstrap_vertices(hist, rng, B=B)
    with pytest.raises(ValueError, match="at least 1 iteration"):
        bootstrap_edges(hist, matrix, pair_domain(rng, 10.0), grid, B=B)


class TestVertexBootstrap:
    def test_degenerate_single_category(self):
        # one degree value: every resample is identical, spread must be 0
        hist = DegreeHistogram(np.array([5]), np.array([100]), 100)
        rng = degree_range(log_grid(1.2, 5), 1, 4)
        rep = bootstrap_vertices(hist, rng, B=25, seed=0)
        assert rep.sigma_s2 == 0.0
        assert rep.diverged == 0
        assert np.unique(rep.estimates).size == 1

    def test_shorter_run_is_a_prefix(self, bo_tables):
        hist, _, _, rng = bo_tables
        short = bootstrap_vertices(hist, rng, B=10, seed=3)
        full = bootstrap_vertices(hist, rng, B=40, seed=3)
        assert short.estimates.tobytes() == full.estimates[:10].tobytes()

    def test_seed_changes_estimates(self, bo_tables):
        hist, _, _, rng = bo_tables
        a = bootstrap_vertices(hist, rng, B=40, seed=3)
        b = bootstrap_vertices(hist, rng, B=40, seed=4)
        assert not np.array_equal(a.estimates, b.estimates)

    def test_report_identities(self, bo_tables):
        hist, _, _, rng = bo_tables
        rep = bootstrap_vertices(hist, rng, B=60, seed=1)
        assert rep.target == "degrees"
        assert rep.iterations == 60 and rep.estimates.size == 60
        valid = rep.estimates[~np.isnan(rep.estimates)]
        assert rep.diverged == 60 - valid.size
        assert rep.sigma_s2 == pytest.approx(
            float(np.mean((valid - rep.original.a) ** 2))
        )
        assert rep.sigma_s == pytest.approx(np.sqrt(rep.sigma_s2))

    def test_diverged_refits_are_counted_as_nan(self):
        # rare top category: resamples that lose it zero the upper tail
        # and the refit is discarded
        hist = DegreeHistogram(np.array([2, 50]), np.array([1000, 2]), 1002)
        rng = degree_range(log_grid(1.2, 50), 1, 49)
        rep = bootstrap_vertices(hist, rng, B=200, seed=7)
        assert 0 < rep.diverged < 200
        assert int(np.isnan(rep.estimates).sum()) == rep.diverged

    def test_all_diverged_raises(self):
        hist = DegreeHistogram(np.array([2, 80]), np.array([5000, 1]), 5001)
        rng = degree_range(log_grid(1.2, 80), 1, 79)
        with pytest.raises(DivergenceError):
            bootstrap_vertices(hist, rng, B=3, seed=28)


class TestEdgeBootstrap:
    def test_shorter_run_is_a_prefix(self, bo_tables):
        hist, matrix, grid, rng = bo_tables
        dom = pair_domain(rng, 10.0)
        short = bootstrap_edges(hist, matrix, dom, grid, B=10, seed=5)
        full = bootstrap_edges(hist, matrix, dom, grid, B=40, seed=5)
        assert short.estimates.tobytes() == full.estimates[:10].tobytes()

    def test_report_identities(self, bo_tables):
        hist, matrix, grid, rng = bo_tables
        dom = pair_domain(rng, 10.0)
        rep = bootstrap_edges(hist, matrix, dom, grid, B=30, seed=5)
        assert rep.target == "edges"
        assert rep.original.converged
        valid = rep.estimates[~np.isnan(rep.estimates)]
        assert rep.sigma_s2 == pytest.approx(
            float(np.mean((valid - rep.original.a) ** 2))
        )

    def test_estimates_spread_around_original(self, bo_tables):
        # resampled exponents should scatter near the original estimate,
        # not collapse or fly off
        hist, matrix, grid, rng = bo_tables
        dom = pair_domain(rng, 10.0)
        rep = bootstrap_edges(hist, matrix, dom, grid, B=50, seed=2)
        valid = rep.estimates[~np.isnan(rep.estimates)]
        assert valid.size >= 45
        assert 0.0 < rep.sigma_s2 < 0.25
        assert abs(float(np.median(valid)) - rep.original.a) < 0.1


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    @pytest.mark.parametrize("B, threads", [(12, 2), (12, 3), (1, 4)])
    def test_bytes_do_not_depend_on_workers(self, bo_tables, B, threads):
        hist, matrix, grid, rng = bo_tables
        dom = pair_domain(rng, 10.0)
        for boot in (
            lambda t: bootstrap_vertices(hist, rng, B=B, seed=3, threads=t),
            lambda t: bootstrap_edges(hist, matrix, dom, grid, B=B, seed=5,
                                      threads=t),
        ):
            assert digest(boot(threads)) == digest(boot(1))
        assert_no_children()

    @pytest.mark.parametrize("fault, status", [("raise", 1), ("exit", 0)])
    def test_failed_worker_is_reported_and_reaped(self, bo_tables,
                                                  monkeypatch, fault, status):
        hist, _, _, rng = bo_tables
        caller, refit = os.getpid(), _PowerLaw.refit

        def worker_fails(law, y, start):
            if os.getpid() != caller:
                if fault == "raise":
                    raise RuntimeError("worker fault")
                os._exit(0)  # exits cleanly, sending nothing
            return refit(law, y, start)

        monkeypatch.setattr(_PowerLaw, "refit", worker_fails)
        with pytest.raises(ChildProcessError,
                           match=f"iterations 2..3 exited with status "
                                 f"{status} after sending 0 of 2"):
            bootstrap_vertices(hist, rng, B=6, seed=3, threads=3)
        assert_no_children()

    def test_caller_fault_kills_and_reaps_workers(self, bo_tables, monkeypatch):
        hist, _, _, rng = bo_tables
        caller = os.getpid()

        def caller_fails(law, y, start):
            if os.getpid() == caller:
                raise RuntimeError("caller fault")
            time.sleep(60)

        monkeypatch.setattr(_PowerLaw, "refit", caller_fails)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="caller fault"):
            bootstrap_vertices(hist, rng, B=4, seed=3, threads=2)
        assert time.monotonic() - t0 < 30
        assert_no_children()

    def test_rejects_fewer_than_one_thread(self, bo_tables):
        hist, _, _, rng = bo_tables
        with pytest.raises(ValueError, match="at least 1 thread"):
            bootstrap_vertices(hist, rng, B=4, threads=0)


class TestTailBlock:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_grid(self, seed):
        gen = np.random.default_rng(seed)
        k = int(gen.integers(2, 12))
        cells = int(gen.integers(1, 60))
        row_bin = gen.integers(0, k + 1, cells)
        col_bin = gen.integers(0, k + 1, cells)
        row_bin[0] = col_bin[0] = k  # a category in the top bin
        weights = gen.integers(1, 1000, cells)
        pairs = int(gen.integers(1, 20))
        i = gen.integers(0, k, pairs)
        j = gen.integers(0, k, pairs)
        i[0] = j[-1] = 0  # the domain touches grid row and column 0
        full = np.bincount(row_bin * (k + 1) + col_bin, weights=weights,
                           minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
        expected = _suffix2d(full)[1:, 1:][i, j]
        tails = _TailBlock(row_bin, col_bin, i, j).tails(weights)
        assert tails.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            tails, strict_tails_at(row_bin, col_bin, weights, i, j))
