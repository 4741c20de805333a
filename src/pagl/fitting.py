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

from . import _EXPORTS
from ._limits import _MAX_WINDOW, _MIN_WINDOW, DivergenceError
from .stats import LogGrid, RhoSurface, TailCounts, _grid_index, _packed

__all__ = list(_EXPORTS["fitting"])


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
    """Inclusive degree bounds and the grid points falling inside them:
    at least 2, since each fit has two parameters."""

    lo: int
    hi: int
    grid_points: np.ndarray

    def __post_init__(self):
        if not 1 <= self.lo < self.hi:
            raise ValueError(f"need 1 <= lo < hi, got [{self.lo}, {self.hi}]")
        if self.grid_points.size < 2:
            raise ValueError(f"need at least 2 grid points inside "
                             f"[{self.lo}, {self.hi}], got {self.grid_points.size}")


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


def _finite(x) -> bool:
    return all(map(math.isfinite, x.tolist()))


def _norm(x) -> float:
    """``np.linalg.norm`` of the float64 vector ``x``, the same bits."""
    return math.sqrt(x.dot(x))


def _solve_step(h, g):
    try:
        delta = np.linalg.solve(h, g)
        if _finite(delta):
            return delta
    except np.linalg.LinAlgError:
        pass
    # singular or ill-conditioned normal equations: regularize the diagonal
    lam = 1e-10 * max(float(np.trace(h)), 1.0)
    eye = np.eye(h.shape[0])
    for _ in range(20):
        try:
            delta = np.linalg.solve(h + lam * eye, g)
            if _finite(delta):
                return delta
        except np.linalg.LinAlgError:
            pass
        lam *= 10.0
    return None


# the solver's limits: iterations, step halvings per line search, and the
# relative step size that counts as convergence
_MAX_ITER = 100
_MAX_HALVINGS = 30
_STEP_TOL = 1e-10


def gauss_newton(residual, jacobian, theta0) -> GNResult:
    """Damped Gauss-Newton over mean squared residuals from ``theta0``.

    Steps are (J^T J)^{-1} J^T r, halved up to ``_MAX_HALVINGS`` times
    until the objective strictly decreases.  Convergence is a relative
    step below ``_STEP_TOL``; a failed line search, a step that is not
    finite (as from a Jacobian that is not) and ``_MAX_ITER`` steps each
    stop the solve with ``converged=False``.  ``trace`` records the objective
    at the start and after every accepted step; it is non-increasing by
    construction.

    ``residual`` returns a float64 vector and may return a buffer it
    reuses; GN copies what it keeps.  ``jacobian(theta)`` returns a
    float64 matrix and is called only at the ``theta`` that ``residual``
    was last called with, so it may reuse that evaluation's values.
    Overflow and invalid-value warnings are silenced for the whole solve.
    """
    theta = np.array(theta0, dtype=np.float64, ndmin=1)
    square = None

    def evaluate(th):
        nonlocal square
        r = residual(th)
        if square is None:
            square = np.empty_like(r)
        # np.mean's own arithmetic: a pairwise sum, then one division
        f = float(np.multiply(r, r, out=square).sum()) / r.size
        return (f if math.isfinite(f) else math.inf), r

    with np.errstate(over="ignore", invalid="ignore"):
        f, r = evaluate(theta)
        trace = [f]
        converged = False
        iterations = 0
        if math.isfinite(f):
            for iterations in range(1, _MAX_ITER + 1):
                jac = jacobian(theta)
                # r is read here, before the line search reuses its buffer
                delta = _solve_step(jac.T @ jac, jac.T @ r)
                if delta is None:
                    break
                scale = 1.0 + _norm(theta)
                size = _norm(delta)
                if size <= _STEP_TOL * scale:
                    converged = True
                    break
                step = 1.0
                accepted = False
                for _ in range(_MAX_HALVINGS + 1):
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
                    if size * 0.5 ** _MAX_HALVINGS <= _STEP_TOL * scale:
                        converged = True
                    break  # otherwise: persistent non-decrease
                # step is a power of two no smaller than 2**-_MAX_HALVINGS
                # and size exceeds _STEP_TOL, so step * size is the norm of
                # step * delta bit for bit
                if step * size <= _STEP_TOL * scale:
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
    ``error`` holds the message of a fit that raised (see :func:`fit_range`).
    """

    a: float
    b: float
    sigma2: float
    iterations: int
    converged: bool
    objective: float
    domain_size: int
    trace: list = field(default_factory=list)
    error: str | None = None


def _unfitted(domain_size: int, error: str | None = None) -> FitResult:
    """A fit with no estimate: NaN parameters, not converged."""
    return FitResult(math.nan, math.nan, math.nan, 0, False, math.inf,
                     domain_size, error=error)


def _clamp(x, lo, hi):
    return min(max(x, lo), hi)


class _PowerLaw:
    """Either model over one domain: the covariates ``u`` and ``c``, the
    shift ``k`` and the value-scale model ``raw(a, b)`` are fixed."""

    def __init__(self, u, c, k, raw):
        self.u, self.c, self.k, self.raw = u, c, k, raw

    def solve(self, sqrt_y, a0, lnb0) -> GNResult:
        model, r = np.empty_like(sqrt_y), np.empty_like(sqrt_y)
        jac = np.empty((sqrt_y.size, 2))

        def residual(th):
            # sqrt_y - exp(0.5 * (th[1] + c + (th[0] + k) * u)), into buffers
            np.add(self.c, th[1], out=model)
            np.add(model, np.multiply(self.u, th[0] + self.k, out=r), out=model)
            np.exp(np.multiply(model, 0.5, out=model), out=model)
            return np.subtract(sqrt_y, model, out=r)

        def jacobian(th):
            # th was evaluated last, so model holds its sqrt-model values;
            # they are finite, as the objective is, and |u| < 100 for
            # int64 degrees, so the Jacobian is finite too
            np.multiply(self.u, -0.5, out=jac[:, 0])  # d(residual)/da
            jac[:, 0] *= model
            np.multiply(model, -0.5, out=jac[:, 1])
            return jac

        return gauss_newton(residual, jacobian, (a0, lnb0))

    def fit(self, y, a0, lnb0) -> FitResult:
        """The fit from (a0, lnb0); raises ValueError when the fitted
        scale exp(ln b) is not a positive finite float (ln b overflows)."""
        gn = self.solve(np.sqrt(y), a0, lnb0)
        a, lnb = float(gn.theta[0]), float(gn.theta[1])
        try:
            b = math.exp(lnb)
        except OverflowError:
            b = math.inf
        if not 0.0 < b < math.inf:
            raise ValueError(f"fitted scale exp({lnb!r}) is not a positive "
                             f"finite float")
        dev = self.raw(a, b)
        dev -= y
        return FitResult(
            a=a, b=b, sigma2=float(np.mean(np.square(dev, out=dev))),
            iterations=gn.iterations, converged=gn.converged,
            objective=gn.objective, domain_size=int(y.size),
            trace=gn.trace,
        )

    def refit(self, y, start: FitResult) -> float:
        """The exponent refitted to ``y`` (overwritten) from ``start``,
        NaN unless converged."""
        gn = self.solve(np.sqrt(y, out=y), start.a, math.log(start.b))
        return float(gn.theta[0]) if gn.converged else math.nan


def _log_start(initial):
    a0, b0 = initial
    if b0 <= 0:
        raise ValueError("initial scale must be positive")
    return a0, math.log(b0)


def _degree_law(rng: DegreeRange) -> _PowerLaw:
    d = rng.grid_points.astype(np.float64)
    return _PowerLaw(-np.log(d), 0.0, 1,
                     lambda a, b: degree_model(a, b, d))


def fit_degree(cum_deg: TailCounts, rng: DegreeRange, *,
               initial=None) -> FitResult:
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
    return _degree_law(rng).fit(y, a0, lnb0)


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
    return _PowerLaw(np.log(b1) + np.log(b2) - ln_sum, ln_sum, 0,
                     lambda a, b: edge_model(a, b, domain.d1, domain.d2))


def fit_edges(surface: RhoSurface, domain: PairDomain, *,
              initial=None) -> FitResult:
    """Fit the edge model to the rho surface over the pair domain.

    Rho must be defined (a row of the edges table) at every pair.
    Returns a diverged result when no sane starting point exists (e.g.
    all-zero data).
    """
    at = _packed(*_pair_index(surface.grid.points, domain))
    # a pair past the surface's last row has no rho
    y = np.full(at.shape, np.nan)
    held = at < surface.rho.size
    y[held] = surface.rho[at[held]]
    del at, held
    return _fit_rho(y, domain, initial=initial)


def _fit_rho(y, domain: PairDomain, *, initial=None) -> FitResult:
    """:func:`fit_edges` on ``y``, the rho values at the domain's pairs."""
    if len(domain) == 0:
        raise ValueError("empty pair domain")
    if np.any(np.isnan(y)):
        raise ValueError("rho is undefined on part of the pair domain")
    law = _edge_law(domain)
    if initial is None:
        pos = y > 0
        if pos.sum() < 2:
            return _unfitted(int(y.size))
        coef = np.polyfit(law.u[pos], np.log(y[pos]) - law.c[pos], 1)
        a0 = _clamp(float(coef[0]), -5.0, 10.0)
        lnb0 = float(coef[1])
    else:
        a0, lnb0 = _log_start(initial)
    return law.fit(y, a0, lnb0)


# ---------------------------------------------------------------------------
# range selection

@dataclass
class RangeSelection:
    """A degree range and its pair domain with the two fits over them.
    ``window`` is the log10 length :func:`select_range` used after any
    shrinking, None for a range it did not choose."""

    range: DegreeRange
    domain: PairDomain
    window: float | None
    product: float
    degree_fit: FitResult
    edge_fit: FitResult


def fit_range(cum_deg: TailCounts, surface: RhoSurface, rng: DegreeRange,
              ratio_cutoff: float = 10.0) -> RangeSelection:
    """Fit the degree model over the range's grid points and, independently,
    the edge model over its pair domain.  A fit that raises ValueError comes
    back unconverged, its message in ``error``."""
    dom = pair_domain(rng, ratio_cutoff)

    def attempt(fit, data, over, size):
        try:
            return fit(data, over)
        except ValueError as exc:
            return _unfitted(size, str(exc))

    df = attempt(fit_degree, cum_deg, rng, rng.grid_points.size)
    ef = attempt(fit_edges, surface, dom, len(dom))
    return RangeSelection(rng, dom, None, df.objective * ef.objective, df, ef)


# the window search: log10 advance per window, fewest grid points in a
# window, and the log10 length taken off a window length that fits nowhere
_STEP = 0.1
_MIN_POINTS = 3
_SHRINK = 0.5


def select_range(cum_deg: TailCounts, surface: RhoSurface, window: float = 3.0,
                 grid: LogGrid = None, *,
                 ratio_cutoff: float = 10.0) -> RangeSelection:
    """Slide a log10 window over the degree axis and keep the
    :func:`fit_range` record whose two fits converge with the smallest
    product of sqrt-scale objectives.

    Windows advance in log10 steps of 0.1 and must hold at least 3 grid
    points.  If a window length yields no convergent window it shrinks by
    0.5 (recorded in the result) down to 1.2; below that, DivergenceError.
    ``window`` must be at least 1.2 and at most ``log10`` of the largest
    float.
    """
    if not _MIN_WINDOW <= window <= _MAX_WINDOW:
        raise ValueError(f"window {window!r} is not in "
                         f"[{_MIN_WINDOW}, {_MAX_WINDOW:.0f}]")
    if grid is None:
        grid = surface.grid
    if cum_deg.degrees.size == 0:
        raise ValueError("no positive degrees to select a range from")
    x_top = math.log10(float(cum_deg.degrees.max()))

    w = window
    while w >= _MIN_WINDOW:
        best = None
        x = 0.0
        while x + w <= x_top + 1e-12:
            lo = max(1, math.floor(10.0**x))
            hi = math.floor(10.0 ** (x + w))
            x += _STEP
            try:
                rng = degree_range(grid, lo, hi)
            except ValueError:
                continue
            if rng.grid_points.size < _MIN_POINTS:
                continue
            sel = fit_range(cum_deg, surface, rng, ratio_cutoff)
            if not (sel.degree_fit.converged and sel.edge_fit.converged):
                continue
            if best is None or sel.product < best.product:
                best = sel
        if best is not None:
            best.window = w
            return best
        w -= _SHRINK
    raise DivergenceError("no window with both fits convergent")
