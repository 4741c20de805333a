import hashlib

import numpy as np
import pytest

from pagl.bootstrap import bootstrap_edges, bootstrap_vertices
from pagl.buckley_osthus import BOParams, generate_bo
from pagl.fitting import DivergenceError, degree_range, pair_domain
from pagl.graphs import simplify
from pagl.stats import (
    DegreeHistogram,
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
    # recorded from the thread-pool implementation: the sequential loop
    # draws the same streams and refits to the same bytes, whatever the
    # (ignored) thread count
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
