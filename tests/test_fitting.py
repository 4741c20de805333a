import math

import numpy as np
import pytest

from pagl.fitting import (
    DivergenceError,
    degree_model,
    degree_range,
    edge_model,
    fit_degree,
    fit_edges,
    gauss_newton,
    loglog_regression,
    pair_domain,
    select_range,
)
from pagl.stats import RhoSurface, TailCounts, log_grid

GRID = log_grid(1.2, 10_000)


def synthetic_tails(pts, a, b, noise=None):
    """TailCounts whose tail evaluates exactly to the degree model."""
    vals = degree_model(a, b, pts.astype(np.float64))
    if noise is not None:
        vals = vals * noise
    return TailCounts(pts, np.concatenate([[vals[0] * 10.0], vals]))


def synthetic_surface(a, b, grid=GRID):
    pts = grid.points.astype(np.float64)
    rho = edge_model(a, b, pts[:, None], pts[None, :])
    k = len(grid)
    return RhoSurface(
        grid,
        np.ones(k, dtype=np.int64),
        np.ones((k, k), dtype=np.int64),
        rho,
        np.ones((k, k), dtype=np.int64),
    )


class TestModels:
    def test_degree_model_values(self):
        assert degree_model(1.0, 8.0, 2.0) == pytest.approx(2.0)
        assert degree_model(0.5, 3.0, 9.0) == pytest.approx(1.0 / 9.0)

    def test_edge_model_values(self):
        # a = 1 removes the sum factor entirely
        assert edge_model(1.0, 2.0, 3.0, 5.0) == pytest.approx(30.0)
        # a = 0 leaves only b * (d1 + d2)
        assert edge_model(0.0, 0.5, 7.0, 9.0) == pytest.approx(8.0)

    def test_edge_model_log_identity(self):
        # cross-check the power form against an exp/log evaluation at
        # realistic parameter scales
        a, b = 0.2774, 8.331e-4
        for d1, d2 in [(1000.0, 10.0), (50.0, 49.0), (12589.0, 12.0)]:
            expect = b * math.exp(
                (1.0 - a) * math.log(d1 + d2) + a * math.log(d1 * d2)
            )
            assert edge_model(a, b, d1, d2) == pytest.approx(expect, rel=1e-12)

    def test_models_vectorize(self):
        d = np.array([2.0, 4.0, 8.0])
        np.testing.assert_allclose(
            degree_model(1.0, 8.0, d), [2.0, 0.5, 0.125]
        )


class TestLogLogRegression:
    def test_exact_power_law(self):
        d = np.array([1.0, 10.0, 100.0, 1000.0])
        slope, intercept = loglog_regression(d, 5.0 * d**-2.0)
        assert slope == pytest.approx(-2.0, abs=1e-12)
        assert intercept == pytest.approx(math.log10(5.0), abs=1e-12)

    def test_cumulative_slope_is_one_above_raw(self):
        # raw counts ~ d**-(2+a) have strict tails ~ d**-(1+a); the exact
        # tail of the power sum is a Hurwitz zeta value
        from scipy.special import zeta

        a = 0.7
        d = np.arange(100, 10_000, dtype=np.float64)
        raw = d ** -(2.0 + a)
        tail = zeta(2.0 + a, d + 1.0)
        s_raw, _ = loglog_regression(d, raw)
        s_tail, _ = loglog_regression(d, tail)
        assert s_tail - s_raw == pytest.approx(1.0, abs=0.01)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            loglog_regression([1.0, 2.0], [1.0, 0.0])


class TestDomains:
    def test_degree_range_filters_grid(self):
        rng = degree_range(GRID, 10, 100)
        assert rng.lo == 10 and rng.hi == 100
        assert rng.grid_points.min() >= 10
        assert rng.grid_points.max() <= 100

    def test_degree_range_validation(self):
        with pytest.raises(ValueError):
            degree_range(GRID, 100, 10)
        with pytest.raises(ValueError):
            degree_range(log_grid(2.0, 1000), 33, 60)  # no points inside

    def test_pair_domain_strict_ratio(self):
        rng = degree_range(GRID, 10, 2000)
        dom = pair_domain(rng, 10.0)
        assert len(dom) > 0
        assert (dom.d1 > 10.0 * dom.d2).all()
        # boundary pairs at exactly the cutoff are excluded
        assert all(d1 != 10 * d2 for d1, d2 in dom.pairs)

    @pytest.mark.parametrize("cutoff", [0.5, math.nan])
    def test_pair_domain_rejects_cutoff_below_one(self, cutoff):
        # below 1 the domain would hold pairs with d1 <= d2, whose tail
        # entries the edge bootstrap does not symmetrize
        with pytest.raises(ValueError, match="ratio cutoff"):
            pair_domain(degree_range(GRID, 10, 2000), cutoff)

    def test_pair_domain_both_endpoints_in_range(self):
        rng = degree_range(GRID, 10, 2000)
        dom = pair_domain(rng, 10.0)
        pts = set(rng.grid_points.tolist())
        assert set(dom.d1.tolist()) <= pts
        assert set(dom.d2.tolist()) <= pts


class TestGaussNewton:
    def test_linear_single_step(self):
        A = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        c = np.array([4.0, 1.0, 2.0])
        sol, *_ = np.linalg.lstsq(A, c, rcond=None)
        res = gauss_newton(lambda th: A @ th - c, lambda th: A, [0.0, 0.0])
        assert res.converged
        assert res.iterations <= 2
        np.testing.assert_allclose(res.theta, sol, atol=1e-10)

    def test_scalar_quadratic_root(self):
        res = gauss_newton(
            lambda th: np.array([th[0] ** 2 - 4.0]),
            lambda th: np.array([[2.0 * th[0]]]),
            [1.0],
        )
        assert res.converged
        assert res.theta[0] == pytest.approx(2.0, abs=1e-8)

    def test_trace_non_increasing(self):
        res = gauss_newton(
            lambda th: np.array([th[0] ** 2 - 4.0, th[0] - 1.9]),
            lambda th: np.array([[2.0 * th[0]], [1.0]]),
            [15.0],
        )
        assert res.trace[0] == pytest.approx((15.0**2 - 4.0) ** 2 / 2 + 13.1**2 / 2)
        assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))

    def test_iteration_budget(self):
        res = gauss_newton(
            lambda th: np.array([th[0] ** 2 - 4.0]),
            lambda th: np.array([[2.0 * th[0]]]),
            [50.0],
            max_iter=1,
        )
        assert not res.converged
        assert res.iterations == 1


    def test_reused_residual_buffer(self):
        # a residual may return one buffer that it overwrites, and the
        # Jacobian is asked only at the theta evaluated last
        x = np.linspace(0.0, 2.0, 50)
        y = 3.0 * np.exp(-1.3 * x) + 0.01 * np.sin(7.0 * x)
        buf = np.empty_like(x)
        evaluated = []

        def fresh(th):
            return y - th[0] * np.exp(th[1] * x)

        def reused(th):
            evaluated.append(th.tobytes())
            return np.subtract(y, th[0] * np.exp(th[1] * x), out=buf)

        def jacobian(th):
            e = np.exp(th[1] * x)
            return np.column_stack([-e, -th[0] * x * e])

        def checked(th):
            assert th.tobytes() == evaluated[-1]
            return jacobian(th)

        a = gauss_newton(fresh, jacobian, [50.0, 4.0])
        b = gauss_newton(reused, checked, [50.0, 4.0])
        assert a.converged and a.iterations > 3
        assert len(evaluated) > a.iterations + 1  # the line search halved
        assert a.theta.tobytes() == b.theta.tobytes()
        assert (repr(a.objective), a.iterations) == (repr(b.objective),
                                                     b.iterations)
        assert list(map(repr, a.trace)) == list(map(repr, b.trace))


class TestFitDegree:
    @pytest.mark.parametrize("a_true", [0.05, 0.3, 1.0, 2.0, 3.0])
    def test_zero_residual_recovery(self, a_true):
        rng = degree_range(GRID, 10, 10_000)
        b_true = 5e5 * 10.0**a_true
        tails = synthetic_tails(rng.grid_points, a_true, b_true)
        # distant start forces the iteration to do real work
        fit = fit_degree(tails, rng, initial=(2.9, b_true * 300.0))
        assert fit.converged
        assert fit.a == pytest.approx(a_true, abs=1e-6)
        assert fit.b == pytest.approx(b_true, rel=1e-6)
        assert fit.objective < 1e-12
        assert fit.sigma2 < 1e-6

    def test_default_start_from_loglog(self):
        rng = degree_range(GRID, 10, 10_000)
        tails = synthetic_tails(rng.grid_points, 0.6, 1e6)
        fit = fit_degree(tails, rng)
        assert fit.converged and fit.a == pytest.approx(0.6, abs=1e-9)

    def test_scale_equivariance(self):
        rng = degree_range(GRID, 10, 10_000)
        noise = 1.0 + 0.05 * np.sin(np.arange(rng.grid_points.size))
        t1 = synthetic_tails(rng.grid_points, 0.6, 1e6, noise)
        t3 = TailCounts(t1.degrees, 3.0 * t1.suffix)
        f1 = fit_degree(t1, rng)
        f3 = fit_degree(t3, rng)
        # agreement is limited by the iteration's stopping tolerance
        assert f3.a == pytest.approx(f1.a, abs=1e-8)
        assert f3.b == pytest.approx(3.0 * f1.b, rel=1e-8)

    def test_sigma2_is_raw_scale_mean_square(self):
        rng = degree_range(GRID, 10, 10_000)
        noise = 1.0 + 0.05 * np.sin(np.arange(rng.grid_points.size))
        tails = synthetic_tails(rng.grid_points, 0.6, 1e6, noise)
        fit = fit_degree(tails, rng)
        y = np.asarray(tails.at(rng.grid_points), dtype=np.float64)
        model = degree_model(fit.a, fit.b, rng.grid_points.astype(np.float64))
        assert fit.sigma2 == pytest.approx(float(np.mean((y - model) ** 2)))

    def test_restart_at_optimum_still_converges(self):
        # a refit seeded exactly at the found optimum must not be
        # reported as diverged when the line search cannot descend
        rng = degree_range(GRID, 10, 10_000)
        noise = 1.0 + 0.05 * np.sin(np.arange(rng.grid_points.size))
        tails = synthetic_tails(rng.grid_points, 0.6, 1e6, noise)
        first = fit_degree(tails, rng)
        again = fit_degree(tails, rng, initial=(first.a, first.b))
        assert again.converged
        assert again.a == pytest.approx(first.a, abs=1e-8)

    def test_rejects_vanishing_tail(self):
        rng = degree_range(GRID, 10, 10_000)
        vals = degree_model(0.5, 1e6, rng.grid_points.astype(np.float64))
        vals[-1] = 0.0
        tails = TailCounts(rng.grid_points, np.concatenate([[1e9], vals]))
        with pytest.raises(ValueError):
            fit_degree(tails, rng)


class TestFitEdges:
    @pytest.mark.parametrize("a_true", [0.2, 0.8, 1.5])
    def test_zero_residual_recovery(self, a_true):
        surf = synthetic_surface(a_true, 3e-4)
        dom = pair_domain(degree_range(GRID, 10, 10_000), 10.0)
        fit = fit_edges(surf, dom)
        assert fit.converged
        assert fit.a == pytest.approx(a_true, abs=1e-6)
        assert fit.b == pytest.approx(3e-4, rel=1e-6)
        assert fit.domain_size == len(dom)

    def test_distant_start(self):
        surf = synthetic_surface(0.3, 3e-4)
        dom = pair_domain(degree_range(GRID, 10, 10_000), 10.0)
        fit = fit_edges(surf, dom, initial=(2.5, 1.0))
        assert fit.converged and fit.a == pytest.approx(0.3, abs=1e-6)

    def test_rejects_empty_domain(self):
        surf = synthetic_surface(0.5, 3e-4)
        rng = degree_range(GRID, 10, 2000)
        empty = pair_domain(rng, 1e9)
        with pytest.raises(ValueError):
            fit_edges(surf, empty)

    def test_rejects_undefined_rho(self):
        surf = synthetic_surface(0.5, 3e-4)
        surf.rho[-1, :] = np.nan
        surf.rho[:, -1] = np.nan
        dom = pair_domain(degree_range(GRID, 10, 10_000), 10.0)
        with pytest.raises(ValueError):
            fit_edges(surf, dom)

    def test_all_zero_data_diverges(self):
        surf = synthetic_surface(0.5, 3e-4)
        surf.rho[:, :] = 0.0
        dom = pair_domain(degree_range(GRID, 10, 10_000), 10.0)
        fit = fit_edges(surf, dom)
        assert not fit.converged
        assert math.isnan(fit.a)


class TestSelectRange:
    def test_finds_window_on_exact_data(self):
        pts = GRID.points
        tails = synthetic_tails(pts, 0.5, 1e6)
        surf = synthetic_surface(0.5, 3e-4)
        sel = select_range(tails, surf, window=2.0, grid=GRID)
        assert sel.degree_fit.converged and sel.edge_fit.converged
        assert sel.degree_fit.a == pytest.approx(0.5, abs=1e-6)
        assert sel.edge_fit.a == pytest.approx(0.5, abs=1e-6)
        assert sel.product == pytest.approx(
            sel.degree_fit.objective * sel.edge_fit.objective
        )
        rng, dom = sel
        assert rng is sel.range and dom is sel.domain

    def test_shrinks_when_window_exceeds_data(self):
        pts = GRID.points
        tails = synthetic_tails(pts, 0.5, 1e6)
        surf = synthetic_surface(0.5, 3e-4)
        sel = select_range(tails, surf, window=9.0, grid=GRID)
        assert sel.window < 9.0
        assert sel.degree_fit.converged and sel.edge_fit.converged

    def test_no_window_raises(self):
        grid = log_grid(1.5, 4)
        pts = grid.points
        tails = synthetic_tails(pts, 0.5, 100.0)
        k = len(grid)
        surf = RhoSurface(
            grid,
            np.ones(k, dtype=np.int64),
            np.ones((k, k), dtype=np.int64),
            np.full((k, k), np.nan),
            np.ones((k, k), dtype=np.int64),
        )
        with pytest.raises(ValueError):
            select_range(tails, surf, window=3.0, grid=grid)

    @pytest.mark.parametrize("window", [math.inf, 1e300, math.nan, 0.5])
    def test_rejects_window_it_cannot_try(self, window):
        tails = synthetic_tails(GRID.points, 0.5, 1e6)
        surf = synthetic_surface(0.5, 3e-4)
        with pytest.raises(ValueError, match="is not in"):
            select_range(tails, surf, window=window, grid=GRID)

    def test_divergence_error_is_runtime_error(self):
        assert issubclass(DivergenceError, RuntimeError)


def test_fit_bit_pin():
    # the fits, the window search and its winners on one generated BO
    # graph, pinned to the last bit
    from pagl.buckley_osthus import BOParams, generate_bo
    from pagl.graphs import simplify
    from pagl.stats import cumulative_degree, degree_histogram, \
        edge_degree_matrix, rho_surface

    s = simplify(generate_bo(BOParams(a=0.5, m=3, n=20000, seed=7)))
    hist = degree_histogram(s)
    grid = log_grid(1.01, int(np.diff(s.indptr).max()))
    surface = rho_surface(hist, edge_degree_matrix(s), grid)
    tails = cumulative_degree(hist)
    rng = degree_range(grid, 3, 100)
    sel = select_range(tails, surface, 3.0, grid)

    def pin(fit):
        return tuple(repr(getattr(fit, key)) for key in
                     ("a", "b", "sigma2", "objective", "iterations"))

    assert pin(fit_degree(tails, rng)) == (
        "0.567970921977915", "54766.65668324475", "673.8910510713714",
        "0.0888124503269682", "4")
    assert pin(fit_edges(surface, pair_domain(rng, 10.0))) == (
        "0.4209252582344755", "0.00011723440394513438",
        "3.422205975799743e-07", "5.350206534048407e-06", "4")
    assert (sel.range.lo, sel.range.hi, sel.window) == (2, 2511, 3.0)
    assert pin(sel.degree_fit) == (
        "0.5643644853804137", "55904.06344223746", "2593.1813916286123",
        "0.15648276146041978", "8")
    assert pin(sel.edge_fit) == (
        "0.13308470020289875", "0.00020345062563944068",
        "0.021307543677460336", "0.009513889949002444", "9")
