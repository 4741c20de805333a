"""Closed-form expectation oracles and scaling checks for the attachment
graphs.

The expected count of degree-d vertices in the merged graph is
n * B(d-m+m*a, a+2) / B(m*a, a+1); the expected number of edges joining
degree-(d1, d2) vertices has leading term
n * m*a*(a+1) * Gamma(m*a+a+1)/Gamma(m*a) * (d1+d2)**(1-a) / (d1*d2)**2,
valid for d1/d2 large.  Lower-order corrections are deliberately not
modeled; comparisons against these oracles use statistical tolerances.

:func:`multiplicity_scaling_report` counts each sample's loops and
excess edges straight from the chain's targets, and spreads the samples
of all sizes n over worker processes in one
:func:`pagl._workers.map_seeds` round.  It loads the chain and the
worker runner when called, so the other oracles do not load them.

Log-gamma is a self-contained Lanczos approximation (g = 7, 9
coefficients, listed below) with the reflection formula below 1/2; it is
accurate to better than 1e-12 relative over [1e-3, 1e9].

:func:`edge_model_shape_check` verifies numerically that the tail-ratio
surface built from the oracle's asymptotic summand is proportional to the
fitted edge model (d1+d2)**(1-a) * (d1*d2)**a.  The double tail sums are
evaluated exactly: the inner sums by Euler-Maclaurin with a closed-form
integral (a Gauss hypergeometric expression), the remaining single sums
as Hurwitz zeta values.  Both special functions are short numpy series:
:func:`_pfaff_2f1` sums the hypergeometric function after Pfaff's
transformation (DLMF 15.8.1), and :func:`_hurwitz_zeta` is the
Euler-Maclaurin form of the Hurwitz zeta (DLMF 25.11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _EXPORTS
from ._limits import MAX_CHAIN, MAX_SHAPE_D1, MAX_SHAPE_PAIRS, MAX_SHAPE_TERMS

__all__ = list(_EXPORTS["theory"])


@dataclass(frozen=True)
class TheoryParams:
    """Model parameters the oracles are evaluated at: a > 0, m >= 1."""

    a: float
    m: int
    n: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"attractiveness a must be a finite positive real, got {self.a!r}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"edges per vertex m must be an integer >= 1, got {self.m!r}")
        if self.n < 1:
            raise ValueError(f"vertex count n must be >= 1, got {self.n!r}")


# Lanczos approximation, g = 7
_LANCZOS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_core(z):
    # valid for z >= 0.5
    x = np.full_like(z, _LANCZOS[0])
    for i in range(1, 9):
        x = x + _LANCZOS[i] / (z - 1.0 + i)
    t = z + 6.5  # g + 0.5
    return _HALF_LOG_2PI + (z - 0.5) * np.log(t) - t + np.log(x)


def log_gamma(z):
    """ln Gamma(z) for z > 0, scalar or array."""
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0.0):
        raise ValueError("log_gamma requires positive arguments")
    small = z < 0.5
    zs = np.where(small, 1.0 - z, z)
    core = _log_gamma_core(zs)
    if np.any(small):
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        refl = np.log(np.pi / np.sin(np.pi * np.where(small, z, 0.5))) - core
        core = np.where(small, refl, core)
    return core if core.ndim else float(core)


def log_beta(x, y):
    """ln B(x, y) for positive x, y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("log_beta requires positive arguments")
    out = log_gamma(x) + log_gamma(y) - log_gamma(x + y)
    return out if np.ndim(out) else float(out)


def expected_degree_count(p: TheoryParams, d):
    """Expected number of degree-d vertices (multigraph degrees), d >= m."""
    d = np.asarray(d, dtype=np.float64)
    if np.any(d < p.m):
        raise ValueError(f"degree must be >= m = {p.m}")
    with np.errstate(all="ignore"):
        out = p.n * np.exp(
            log_beta(d - p.m + p.m * p.a, p.a + 2.0) - log_beta(p.m * p.a, p.a + 1.0)
        )
    return _finite_count(out, p, d)


def expected_edge_count(p: TheoryParams, d1, d2):
    """Leading term of the expected count of edges joining degrees d1, d2.

    Accurate only up to multiplicative corrections that decay with
    d1/d2; callers should compare with wide or statistical tolerances.
    """
    d1 = np.asarray(d1, dtype=np.float64)
    d2 = np.asarray(d2, dtype=np.float64)
    if np.any(d1 < p.m) or np.any(d2 < p.m):
        raise ValueError(f"degrees must be >= m = {p.m}")
    a = p.a
    with np.errstate(all="ignore"):
        coeff = p.m * a * (a + 1.0) * np.exp(log_gamma(p.m * a + a + 1.0) - log_gamma(p.m * a))
        out = p.n * coeff * (d1 + d2) ** (1.0 - a) / (d1 * d1 * d2 * d2)
    return _finite_count(out, p, d1, d2)


def _finite_count(out, p: TheoryParams, *degrees):
    """``out`` (a float for scalar degrees), or a ValueError naming ``a``
    and the first degrees ``d`` or ``d1:d2`` at which it is not finite."""
    bad = ~np.isfinite(out)
    if np.any(bad):
        at = ":".join(f"{np.broadcast_to(d, bad.shape)[bad][0]:.17g}" for d in degrees)
        raise ValueError(f"expected count at degree {at} is not finite for a={p.a!r}")
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# loop / multi-edge scaling

@dataclass
class MultiplicityScalingReport:
    """Monte-Carlo scaling of loop and excess-edge counts across sizes n.

    ``multi_slope`` is the log-log regression slope of the mean excess
    count against n: the model gives (1-a)/(1+a), about 0.34 at a = 0.5,
    while n**(1-a) is only an upper bound.  It is NaN when the mean excess
    count is 0 at some n (always at m = 1), where its log is not defined.
    ``loops_slope`` regresses the
    mean loop count linearly on ln n.  Fractions are normalized by the
    edge count m*n.
    """

    n_list: list
    mean_loops: np.ndarray
    mean_multi: np.ndarray
    multi_slope: float
    loops_slope: float
    loop_fractions: np.ndarray
    multi_fractions: np.ndarray


def _loops_and_excess(targets, m: int):
    """Loops and excess parallel edges of the chain with these targets,
    merged in m-blocks: ``count_multiplicities(merge_blocks(chain, m))``.

    Step k gives the merged edge (k // m, t_k // m), and t_k <= k, so the
    larger end is k // m and parallel edges lie in one block of m steps.
    A loop has t_k // m == k // m; an excess edge is a non-loop whose
    block holds the same value in an earlier column.
    """
    rows = (targets // m).reshape(-1, m)
    loop = rows == np.arange(rows.shape[0], dtype=rows.dtype)[:, None]
    excess = 0
    for j in range(1, m):
        seen = rows[:, 0] == rows[:, j]
        for i in range(1, j):
            seen |= rows[:, i] == rows[:, j]
        seen &= ~loop[:, j]
        excess += int(np.count_nonzero(seen))
    return int(np.count_nonzero(loop)), excess


def multiplicity_scaling_report(samples_per_n, n_list, a, m, seed=0, threads=1):
    """Generate ``samples_per_n`` graphs at each n and regress the counts.

    The sample k at the i-th size draws from child k of the i-th
    ``base.spawn(1)``.  All samples run in one worker round, sample-major
    (every size of sample 0, then of sample 1, ...), so each worker's
    contiguous share carries about the same work.
    """
    from ._workers import map_seeds
    from .buckley_osthus import _chain_targets

    if not (0.0 < a < 1.0):
        raise ValueError("scaling check requires 0 < a < 1")
    if samples_per_n < 1:
        raise ValueError(f"need at least 1 sample per n, got {samples_per_n}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got m={m}")
    n_list = [int(n) for n in n_list]
    if len(n_list) < 2:
        raise ValueError("n_list needs at least 2 sizes to fit a slope")
    if min(n_list) < 1:
        raise ValueError(f"every n must be at least 1, got n={min(n_list)}")
    if any(b <= c for b, c in zip(n_list[1:], n_list)):
        raise ValueError("n_list must be strictly increasing")
    if m * n_list[-1] > MAX_CHAIN:
        raise ValueError(f"m*n = {m * n_list[-1]} exceeds the 32-bit id "
                         f"limit {MAX_CHAIN}")
    base = np.random.SeedSequence(seed)
    streams = [base.spawn(1)[0].spawn(samples_per_n) for _ in n_list]
    tasks = [(n, per_n[k]) for k in range(samples_per_n)
             for n, per_n in zip(n_list, streams)]

    def one(task):
        n, stream = task
        return _loops_and_excess(_chain_targets(float(a), m * n, stream), m)

    counts = map_seeds(one, tasks, threads).reshape(samples_per_n, -1, 2)
    mean_loops, mean_multi = counts.mean(0).T.copy()

    ln_n = np.log(np.asarray(n_list, dtype=np.float64))
    multi_slope = (float(np.polyfit(ln_n, np.log(mean_multi), 1)[0])
                   if mean_multi.all() else math.nan)
    loops_slope = float(np.polyfit(ln_n, mean_loops, 1)[0])
    edges = np.asarray(n_list, dtype=np.float64) * m
    return MultiplicityScalingReport(
        n_list, mean_loops, mean_multi, multi_slope, loops_slope,
        loop_fractions=mean_loops / edges, multi_fractions=mean_multi / edges)


# ---------------------------------------------------------------------------
# shape check of the edge model against exact tail sums

# Bernoulli numbers B2, B4, ..., B14, each over (2j)!
_BERNOULLI_TERMS = tuple(
    b / math.factorial(2 * j)
    for j, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                           -691 / 2730, 7 / 6), start=1))
_ZETA_DIRECT_TERMS = 12


def _pfaff_2f1(a, x):
    """2F1(a-1, a; a+1; -x) for x in (0, 1], scalar or array.

    Pfaff's transformation gives (1+x)**-a * 2F1(2, a; a+1; w) with
    w = x/(1+x) <= 1/2, and that series is sum_k (k+1) * a/(a+k) * w**k.
    Horner's rule sums it over as many terms as the largest w needs for
    double precision: about 60 at w = 1/2.
    """
    x = np.asarray(x, dtype=np.float64)
    w = x / (1.0 + x)
    w_max = float(np.max(w))
    # every coefficient is at most k+1 and the sum is at least 1, so the
    # terms left out sum to less than (n+1) * w**n / (1-w)**2
    n = 1
    while (n + 1) * w_max**n >= 2.0**-54 * (1.0 - w_max) ** 2:
        n += 1
    total = np.zeros_like(w)
    for k in range(n - 1, -1, -1):
        total = total * w + (k + 1.0) / (1.0 + k / a)
    out = (1.0 + x) ** -a * total
    return out if out.ndim else float(out)


def _hurwitz_zeta(s, q):
    """Hurwitz zeta sum_{k>=0} (q+k)**-s for s >= 2 and q >= 2, q scalar
    or array.

    Twelve direct terms, then Euler-Maclaurin from Q = q+12: the tail
    integral Q**(1-s)/(s-1), the half term Q**-s/2 and the Bernoulli terms
    B2..B14.  The first term left out (B16) is below 1e-17 of the sum for
    s up to 1000.
    """
    q = np.asarray(q, dtype=np.float64)
    direct = np.sum((q[..., None] + np.arange(_ZETA_DIRECT_TERMS)) ** -s, axis=-1)
    big_q = q + _ZETA_DIRECT_TERMS
    # term j is B_2j/(2j)! * s(s+1)...(s+2j-2) * Q**(1-2j), times Q**-s
    rising = s / big_q
    bernoulli = np.zeros_like(big_q)
    for j, c in enumerate(_BERNOULLI_TERMS, start=1):
        bernoulli += c * rising
        rising = rising * (s + 2 * j - 1) * (s + 2 * j) / (big_q * big_q)
    out = direct + big_q**-s * (big_q / (s - 1.0) + 0.5 + bernoulli)
    return out if out.ndim else float(out)


def _inner_tail(L, j, a):
    """sum_{i >= L} (i+j)**(1-a) * i**-2 by Euler-Maclaurin.

    The integral term has the closed form
    L**(-a)/a * 2F1(a-1, a, a+1, -j/L); the f(L)/2 - f'(L)/12 correction
    leaves a remainder far below 1e-6 relative for L >= 11.
    """
    integral = L ** (-a) / a * _pfaff_2f1(a, j / L)
    f = (L + j) ** (1.0 - a) * L**-2.0
    fp = (1.0 - a) * (L + j) ** (-a) * L**-2.0 - 2.0 * (L + j) ** (1.0 - a) * L**-3.0
    return integral + 0.5 * f - fp / 12.0


def tail_ratio(d1: int, d2: int, a: float) -> float:
    """Exact value of the cumulative-ratio surface built from the
    asymptotic edge summand:

    sum_{i>=j, i>d1, j>d2} (i+j)**(1-a) (i*j)**-2
    / [sum_{i>d1} i**(-2-a) * sum_{j>d2} j**(-2-a)].

    Where the sums leave the float range the value is 0, inf or nan.
    """
    if not (d1 >= d2 >= 1):
        raise ValueError("need d1 >= d2 >= 1")
    if not a > 0:
        raise ValueError("need a > 0")
    L = d1 + 1.0
    with np.errstate(all="ignore"):
        # region with j <= d1 < i: exact sum over j of the inner tail
        j = np.arange(d2 + 1, d1 + 1, dtype=np.float64)
        region_a = float(np.sum(j**-2.0 * _inner_tail(L, j, a))) if j.size else 0.0
        # region with j > d1 (inner tail starts at i = j): three Hurwitz
        # zeta sums after Euler-Maclaurin at L = j
        f1 = _pfaff_2f1(a, 1.0)
        c3 = (1.0 - a) * 2.0**-a - 2.0 ** (2.0 - a)
        region_b = (
            (f1 / a) * _hurwitz_zeta(2.0 + a, L)
            + 2.0**-a * _hurwitz_zeta(3.0 + a, L)
            - c3 / 12.0 * _hurwitz_zeta(4.0 + a, L)
        )
        denom = _hurwitz_zeta(2.0 + a, L) * _hurwitz_zeta(2.0 + a, d2 + 1.0)
        return float(np.divide(region_a + region_b, denom))


@dataclass
class ShapeCheckReport:
    """Outcome of comparing the tail-ratio surface against the edge model
    shape (d1+d2)**(1-a) * (d1*d2)**a up to one fitted constant."""

    a: float
    pairs: list
    ratios: np.ndarray
    shape: np.ndarray
    constant: float
    max_rel_deviation: float


def edge_model_shape_check(
    a2: float,
    pairs=None,
    *,
    ratio_range=(10.0, 1000.0),
    d2_range=(10, 100),
    grid_size=5,
) -> ShapeCheckReport:
    """Max relative deviation between the tail-ratio surface and the edge
    model over a degree-pair set, after calibrating one constant.

    The default pair set is a geometric grid of d2 values crossed with a
    geometric grid of d1/d2 ratios.  The constant is the minimax choice
    (midpoint of the extreme ratio/shape quotients).  Pairs with small
    d1/d2 are allowed but lie outside the model's regime; expect large
    deviations there.  ``a2`` must be finite and positive, the ratio
    bounds finite and at least 1, the d2 bounds and ``grid_size`` at
    least 1, and the pair set at most ``MAX_SHAPE_PAIRS`` long, with no
    d1 above ``MAX_SHAPE_D1`` and at most ``MAX_SHAPE_TERMS`` terms
    d1 - d2 in all, checked before the first tail ratio.  A pair whose
    tail ratio or shape is not a positive finite float (the sums under-
    or overflow for a large ``a2``) raises ValueError.
    """
    if not 0.0 < a2 < math.inf:
        raise ValueError(f"a2 must be finite and > 0, got {a2!r}")
    if not all(1.0 <= r < math.inf for r in ratio_range):
        raise ValueError(
            f"ratio bounds must be finite and >= 1, got {ratio_range!r}")
    if not min(d2_range) >= 1:
        raise ValueError(f"d2 bounds must be >= 1, got {d2_range!r}")
    if grid_size < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size!r}")
    if pairs is None:
        d2s = np.unique(np.geomspace(d2_range[0], d2_range[1], grid_size).round().astype(int))
        rats = np.geomspace(ratio_range[0], ratio_range[1], grid_size)
        # d1 stays a float until it is checked: r * d2 may overflow to inf
        pairs = [(float(r) * d2, d2) for d2 in d2s.tolist() for r in rats]
    if len(pairs) > MAX_SHAPE_PAIRS:
        raise ValueError(f"{len(pairs)} pairs exceed the limit of "
                         f"{MAX_SHAPE_PAIRS}; use a smaller grid size")
    d1, d2 = max(pairs, key=lambda pair: pair[0])
    if not d1 <= MAX_SHAPE_D1:
        raise ValueError(f"pair {d1:.0f}:{d2} has a d1 above the limit of "
                         f"{MAX_SHAPE_D1}; use smaller ratio or d2 bounds")
    pairs = [(round(d1), d2) for d1, d2 in pairs]
    terms = sum(max(d1 - d2, 0) for d1, d2 in pairs)
    if terms > MAX_SHAPE_TERMS:
        raise ValueError(f"the pairs' tail ratios sum {terms} terms (d1 - d2 "
                         f"per pair), above the limit of {MAX_SHAPE_TERMS}; "
                         f"use a smaller grid size or ratio or d2 bounds")
    ratios = np.array([tail_ratio(d1, d2, a2) for d1, d2 in pairs])
    d1s, d2s = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
    with np.errstate(all="ignore"):
        shape = (d1s + d2s) ** (1.0 - a2) * d1s**a2 * d2s**a2
    bad = ~((ratios > 0) & (ratios < math.inf) & (shape > 0) & (shape < math.inf))
    if np.any(bad):
        d1, d2 = pairs[int(np.argmax(bad))]
        raise ValueError(f"tail ratio or edge model shape at pair {d1}:{d2} is "
                         f"not a positive finite float for a2={a2!r}")
    q = ratios / shape
    constant = 0.5 * (q.max() + q.min())
    max_dev = float(np.max(np.abs(q / constant - 1.0)))
    return ShapeCheckReport(a2, pairs, ratios, shape, float(constant),
                            max_rel_deviation=max_dev)
