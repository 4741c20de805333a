"""Estimation of the attractiveness parameter from empirical tails.

Two power-law models are fitted:

* degree model  b * d**(-1-a)          against the cumulative tail of the
  degree histogram, over the geometric grid points inside a degree range;
* edge model    b * (d1+d2)**(1-a) * (d1*d2)**a   against the cumulative
  edge-tail correlation, over grid pairs whose ratio d1/d2 exceeds a
  cutoff (at least 1, default 10, strict).

Both are one damped Gauss-Newton fit of ``sqrt(y) ~ exp((ln b + c + (a +
k) u) / 2)`` in theta = (a, ln b), so b stays positive, over covariates
built once per domain: c = 0, k = 1, u = -ln d for degrees; c = ln(d1+d2),
k = 0, u = ln d1 + ln d2 - c for edges.  ``sigma2`` in results is the mean
squared raw-scale deviation; ``objective`` is the minimized sqrt-scale
mean square.  A plain log-log regression is a baseline only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .stats import LogGrid, RhoSurface, TailCounts, _grid_index

__all__ = [
    "DegreeRange",
    "PairDomain",
    "FitResult",
    "GNResult",
    "DivergenceError",
    "degree_model",
    "edge_model",
    "loglog_regression",
    "gauss_newton",
    "degree_range",
    "pair_domain",
    "fit_degree",
    "fit_edges",
    "RangeSelection",
    "select_range",
]


class DivergenceError(RuntimeError):
    """Raised when a required fit (or every bootstrap refit) diverges."""


def degree_model(a, b, d):
    """b * d**(-1-a); approximates the cumulative degree tail."""
    d = np.asarray(d, dtype=np.float64)
    out = b * d ** (-1.0 - a)
    return out if np.ndim(out) else float(out)


def edge_model(a, b, d1, d2):
    """b * (d1+d2)**(1-a) * (d1*d2)**a; approximates the rho surface."""
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    out = b * (d1 + d2) ** (1.0 - a) * (d1 * d2) ** a
    return out if np.ndim(out) else float(out)


def loglog_regression(d, values):
    """OLS slope and intercept of log10(values) on log10(d).

    Baseline estimator only; headline estimates come from the
    Gauss-Newton fits.
    """
    d = np.asarray(d, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if np.any(d <= 0) or np.any(values <= 0):
        raise ValueError("log-log regression needs positive inputs")
    slope, intercept = np.polyfit(np.log10(d), np.log10(values), 1)
    return float(slope), float(intercept)


# ---------------------------------------------------------------------------
# domains

@dataclass(frozen=True)
class DegreeRange:
    """Inclusive degree bounds and the grid points falling inside them."""

    lo: int
    hi: int
    grid_points: np.ndarray

    def __post_init__(self):
        if not 1 <= self.lo < self.hi:
            raise ValueError(f"need 1 <= lo < hi, got [{self.lo}, {self.hi}]")
        if self.grid_points.size == 0:
            raise ValueError(f"no grid points inside [{self.lo}, {self.hi}]")


def degree_range(grid: LogGrid, lo: int, hi: int) -> DegreeRange:
    pts = grid.points
    return DegreeRange(int(lo), int(hi), pts[(pts >= lo) & (pts <= hi)])


@dataclass(frozen=True)
class PairDomain:
    """Grid pairs (d1, d2) with d1/d2 strictly above a cutoff of at least 1."""

    d1: np.ndarray
    d2: np.ndarray
    ratio_cutoff: float

    def __post_init__(self):
        if not self.ratio_cutoff >= 1.0:
            raise ValueError(f"ratio cutoff {self.ratio_cutoff!r} is not >= 1")
        if np.any(self.d1 <= self.d2 * self.ratio_cutoff):
            raise ValueError("pair domain contains pairs below the ratio cutoff")

    @property
    def pairs(self):
        return list(zip(self.d1.tolist(), self.d2.tolist()))

    def __len__(self):
        return self.d1.size


def pair_domain(rng: DegreeRange, ratio_cutoff: float = 10.0) -> PairDomain:
    pts = rng.grid_points
    big = pts[:, None].astype(np.float64)
    small = pts[None, :].astype(np.float64)
    i, j = np.nonzero(big > ratio_cutoff * small)
    return PairDomain(pts[i], pts[j], float(ratio_cutoff))


# ---------------------------------------------------------------------------
# Gauss-Newton

@dataclass
class GNResult:
    theta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    trace: list = field(default_factory=list)


def _solve_step(h, g):
    try:
        delta = np.linalg.solve(h, g)
        if np.all(np.isfinite(delta)):
            return delta
    except np.linalg.LinAlgError:
        pass
    # singular or ill-conditioned normal equations: regularize the diagonal
    lam = 1e-10 * max(float(np.trace(h)), 1.0)
    eye = np.eye(h.shape[0])
    for _ in range(20):
        try:
            delta = np.linalg.solve(h + lam * eye, g)
            if np.all(np.isfinite(delta)):
                return delta
        except np.linalg.LinAlgError:
            pass
        lam *= 10.0
    return None


def gauss_newton(residual, jacobian, theta0, *, max_iter=100, max_halvings=30,
                 step_tol=1e-10) -> GNResult:
    """Damped Gauss-Newton over mean squared residuals.

    Steps are (J^T J)^{-1} J^T r, halved up to ``max_halvings`` times
    until the objective strictly decreases; a failed line search stops
    with ``converged=False``.  Convergence is a relative step below
    ``step_tol``.  ``trace`` records the objective at the start and after
    every accepted step; it is non-increasing by construction.

    ``residual`` may return a buffer it reuses; GN copies what it keeps.
    ``jacobian(theta)`` is called only at the ``theta`` that ``residual``
    was last called with, so it may reuse that evaluation's values.
    Overflow and invalid-value warnings are silenced for the whole solve.
    """
    square = None

    def evaluate(th):
        nonlocal square
        r = np.atleast_1d(np.asarray(residual(th), dtype=np.float64))
        if square is None:
            square = np.empty_like(r)
        # np.mean's own arithmetic: a pairwise sum, then one division
        f = float(np.multiply(r, r, out=square).sum()) / r.size
        return (f if math.isfinite(f) else math.inf), r

    with np.errstate(over="ignore", invalid="ignore"):
        theta = np.atleast_1d(np.asarray(theta0, dtype=np.float64)).copy()
        f, r = evaluate(theta)
        trace = [f]
        converged = False
        iterations = 0
        if math.isfinite(f):
            for iterations in range(1, max_iter + 1):
                jac = np.asarray(jacobian(theta), dtype=np.float64)
                if not np.all(np.isfinite(jac)):
                    break
                # r is read here, before the line search reuses its buffer
                delta = _solve_step(jac.T @ jac, jac.T @ r)
                if delta is None:
                    break
                scale = 1.0 + float(np.linalg.norm(theta))
                if float(np.linalg.norm(delta)) <= step_tol * scale:
                    converged = True
                    break
                step = 1.0
                accepted = False
                for _ in range(max_halvings + 1):
                    candidate = theta - step * delta
                    f_new, r_new = evaluate(candidate)
                    if f_new < f:
                        theta = candidate
                        f, r = f_new, r_new
                        trace.append(f)
                        accepted = True
                        break
                    step *= 0.5
                if not accepted:
                    # No damped step decreases the objective.  When even the
                    # most-damped candidate is already below the step
                    # tolerance this is a stationary point, not divergence.
                    if (float(np.linalg.norm(delta)) * 0.5 ** max_halvings
                            <= step_tol * scale):
                        converged = True
                    break  # otherwise: persistent non-decrease
                if float(np.linalg.norm(step * delta)) <= step_tol * scale:
                    converged = True
                    break
    return GNResult(theta=theta, objective=f, iterations=iterations,
                    converged=converged, trace=trace)


# ---------------------------------------------------------------------------
# model fits

@dataclass
class FitResult:
    """Fitted exponent and scale with convergence metadata.

    ``sigma2`` is the mean squared raw-scale deviation over the fitting
    domain; ``objective`` is the minimized sqrt-scale mean square.
    """

    a: float
    b: float
    sigma2: float
    iterations: int
    converged: bool
    objective: float
    domain_size: int
    kind: str
    trace: list = field(default_factory=list)


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


class _PowerLaw:
    """Either model over one domain: the covariates ``u`` and ``c``, the
    shift ``k`` and the value-scale model ``raw(a, b)`` are fixed."""

    def __init__(self, kind, u, c, k, raw):
        self.kind, self.u, self.c, self.k, self.raw = kind, u, c, k, raw
        self._du = -0.5 * u  # d(residual)/da over the sqrt-model

    def solve(self, y, a0, lnb0, max_iter=100) -> GNResult:
        sqrt_y = np.sqrt(y)
        model, r = np.empty_like(sqrt_y), np.empty_like(sqrt_y)
        jac = np.empty((sqrt_y.size, 2))

        def residual(th):
            # sqrt_y - exp(0.5 * (th[1] + c + (th[0] + k) * u)), into buffers
            np.add(self.c, th[1], out=model)
            np.add(model, np.multiply(self.u, th[0] + self.k, out=r), out=model)
            np.exp(np.multiply(model, 0.5, out=model), out=model)
            return np.subtract(sqrt_y, model, out=r)

        def jacobian(th):
            # th was evaluated last, so model holds its sqrt-model values
            np.multiply(self._du, model, out=jac[:, 0])
            np.multiply(model, -0.5, out=jac[:, 1])
            return jac

        return gauss_newton(residual, jacobian, [a0, lnb0], max_iter=max_iter)

    def fit(self, y, a0, lnb0, max_iter) -> FitResult:
        gn = self.solve(y, a0, lnb0, max_iter)
        a, b = float(gn.theta[0]), float(math.exp(gn.theta[1]))
        return FitResult(
            a=a, b=b,
            sigma2=float(np.mean((y - self.raw(a, b)) ** 2)),
            iterations=gn.iterations, converged=gn.converged,
            objective=gn.objective, domain_size=int(y.size), kind=self.kind,
            trace=gn.trace,
        )

    def refit(self, y, start: FitResult) -> float:
        """The exponent refitted to ``y`` from ``start``, NaN unless converged."""
        gn = self.solve(y, start.a, math.log(start.b))
        return float(gn.theta[0]) if gn.converged else math.nan


def _log_start(initial):
    a0, b0 = initial
    if b0 <= 0:
        raise ValueError("initial scale must be positive")
    return a0, math.log(b0)


def _degree_law(rng: DegreeRange) -> _PowerLaw:
    d = rng.grid_points.astype(np.float64)
    return _PowerLaw("degree", -np.log(d), 0.0, 1,
                     lambda a, b: degree_model(a, b, d))


def fit_degree(cum_deg: TailCounts, rng: DegreeRange, *, initial=None,
               max_iter=100) -> FitResult:
    """Fit the degree model to the cumulative tail on the range's grid points.

    Every grid point must have a positive tail count.  ``initial``
    overrides the default start (exponent from the log-log baseline,
    scale matched at the geometric midpoint of the range).
    """
    y = np.asarray(cum_deg.at(rng.grid_points), dtype=np.float64)
    if np.any(y <= 0):
        raise ValueError("cumulative degree count vanishes inside the fit range")
    if initial is None:
        d = rng.grid_points.astype(np.float64)
        slope, _ = loglog_regression(d, y)
        a0 = _clamp(-slope - 1.0, 0.01, 10.0)
        mid_idx = int(np.argmin(np.abs(d - math.sqrt(rng.lo * rng.hi))))
        lnb0 = math.log(y[mid_idx] * d[mid_idx] ** (1.0 + a0))
    else:
        a0, lnb0 = _log_start(initial)
    return _degree_law(rng).fit(y, a0, lnb0, max_iter)


def _pair_index(points: np.ndarray, domain: PairDomain):
    """Positions (i, j) of the domain's pairs on the grid ``points``."""
    (i, j), on_grid = _grid_index(points, np.stack([domain.d1, domain.d2]))
    if not on_grid.all():
        raise ValueError("pair domain contains degrees outside the surface grid")
    return i, j


def _edge_law(domain: PairDomain) -> _PowerLaw:
    b1 = domain.d1.astype(np.float64)
    b2 = domain.d2.astype(np.float64)
    ln_sum = np.log(b1 + b2)
    return _PowerLaw("edges", np.log(b1) + np.log(b2) - ln_sum, ln_sum, 0,
                     lambda a, b: edge_model(a, b, b1, b2))


def fit_edges(surface: RhoSurface, domain: PairDomain, *, initial=None,
              max_iter=100) -> FitResult:
    """Fit the edge model to the rho surface over the pair domain.

    Rho must be defined (not an omitted cell) at every pair.  Returns a
    diverged result when no sane starting point exists (e.g. all-zero
    data).
    """
    if len(domain) == 0:
        raise ValueError("empty pair domain")
    y = surface.rho[_pair_index(surface.grid.points, domain)]
    if np.any(np.isnan(y)):
        raise ValueError("rho is undefined on part of the pair domain")
    law = _edge_law(domain)
    if initial is None:
        pos = y > 0
        if pos.sum() < 2:
            return FitResult(a=math.nan, b=math.nan, sigma2=math.nan,
                             iterations=0, converged=False, objective=math.inf,
                             domain_size=int(y.size), kind="edges")
        coef = np.polyfit(law.u[pos], np.log(y[pos]) - law.c[pos], 1)
        a0 = _clamp(float(coef[0]), -5.0, 10.0)
        lnb0 = float(coef[1])
    else:
        a0, lnb0 = _log_start(initial)
    return law.fit(y, a0, lnb0, max_iter)


# ---------------------------------------------------------------------------
# range selection

@dataclass
class RangeSelection:
    """Chosen fitting window with the fits that won the selection.

    Iterating yields (range, domain) so callers can unpack directly.
    ``window`` is the log10 length actually used after any shrinking.
    """

    range: DegreeRange
    domain: PairDomain
    window: float
    product: float
    degree_fit: FitResult
    edge_fit: FitResult

    def __iter__(self):
        yield self.range
        yield self.domain


# the shortest window tried, and the longest whose span 10**window is a float
_MIN_WINDOW = 1.2
_MAX_WINDOW = math.log10(np.finfo(np.float64).max)


def select_range(cum_deg: TailCounts, surface: RhoSurface, window: float = 3.0,
                 grid: LogGrid = None, *, ratio_cutoff: float = 10.0,
                 step: float = 0.1, min_points: int = 3, shrink: float = 0.5,
                 min_window: float = _MIN_WINDOW) -> RangeSelection:
    """Slide a log10 window over the degree axis and keep the one whose
    two fits have the smallest product of sqrt-scale objectives.

    Windows advance in ``step`` log10 increments.  A window is valid when
    every grid point inside has a positive tail count, the pair domain is
    nonempty, and both fits converge.  If a window length yields no valid
    window it shrinks by ``shrink`` (recorded in the result) down to
    ``min_window`` before giving up; ``window`` must be at least that and
    at most ``log10`` of the largest float.
    """
    if not min_window <= window <= _MAX_WINDOW:
        raise ValueError(f"window {window!r} is not in "
                         f"[{min_window}, {_MAX_WINDOW:.0f}]")
    if grid is None:
        grid = surface.grid
    if cum_deg.degrees.size == 0:
        raise ValueError("no positive degrees to select a range from")
    x_top = math.log10(float(cum_deg.degrees.max()))

    w = window
    while w >= min_window:
        best = None
        x = 0.0
        while x + w <= x_top + 1e-12:
            lo = max(1, math.floor(10.0**x))
            hi = math.floor(10.0 ** (x + w))
            x += step
            try:
                rng = degree_range(grid, lo, hi)
            except ValueError:
                continue
            if rng.grid_points.size < min_points:
                continue
            dom = pair_domain(rng, ratio_cutoff)
            if len(dom) == 0:
                continue
            try:
                df = fit_degree(cum_deg, rng)
                ef = fit_edges(surface, dom)
            except ValueError:
                continue
            if not (df.converged and ef.converged):
                continue
            product = df.objective * ef.objective
            if best is None or product < best.product:
                best = RangeSelection(rng, dom, w, product, df, ef)
        if best is not None:
            return best
        w -= shrink
    raise ValueError("no window with both fits convergent")
