"""Acceptance gate: ten end-to-end checks of the whole package.

Each test prints one ``[criterion N] PASS/FAIL`` line with its measured
values before asserting, so a full run documents every outcome even when
a check fails.  Run with ``pytest tests/test_acceptance.py -v -s``.
Expect a long run: three checks build million-vertex graphs.
"""

import math
import os
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
from scipy.stats import spearmanr

from pagl.baselines import (
    GDSParams,
    HKParams,
    generate_configuration,
    generate_holme_kim,
    sample_power_law_degrees,
)
from oracles import (
    AttachmentState,
    attachment_distribution,
    cells_dict,
    cumulative_edges,
    dnn_dict,
)
from pagl.buckley_osthus import (
    BOParams,
    generate_bo,
    generate_bo_chain,
    generate_bo_samples,
)
from pagl.cli import main
from pagl.fitting import (
    degree_model,
    degree_range,
    edge_model,
    fit_degree,
    fit_edges,
    pair_domain,
    select_range,
)
from pagl.graphs import Graph, simplify
from pagl.stats import (
    RhoSurface,
    TailCounts,
    cumulative_degree,
    d_nn_profile,
    degree_histogram,
    edge_degree_matrix,
    graph_tables,
    log_grid,
)
from pagl.theory import (
    TheoryParams,
    edge_model_shape_check,
    expected_degree_count,
    multiplicity_scaling_report,
)

THREADS = min(8, os.cpu_count() or 1)


def check(num, ok, detail):
    """Print the criterion verdict on the real stdout, then assert."""
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, file=sys.__stdout__ or sys.stdout, flush=True)
    assert ok, line


# -- 1: sampled chain law vs exact enumeration ------------------------------

def exact_chain_sequence_probs(a, length):
    """Probability of every target sequence, as exact rationals."""
    out = {}

    def walk(state, prob, seq):
        if state.t == length:
            out[seq] = prob
            return
        for target, p in enumerate(attachment_distribution(state, a)):
            nxt = AttachmentState(state.t, list(state.degrees),
                                  list(state.excess_list))
            nxt.apply_step(target)
            walk(nxt, prob * p, seq + (target,))

    walk(AttachmentState(), Fraction(1), ())
    return out


def test_criterion_01_chain_law_matches_exact_enumeration():
    samples = 1_000_000
    cases = [(0.3, Fraction(3, 10)), (1.0, Fraction(1)), (2.0, Fraction(2))]
    details = []
    ok = True
    for idx, (a, a_exact) in enumerate(cases):
        exact = exact_chain_sequence_probs(a_exact, 3)
        assert sum(exact.values()) == 1 and len(exact) == 6
        counts = Counter()
        base = idx * samples
        for k in range(samples):
            g = generate_bo_chain(a, 3, base + k)
            counts[(int(g.edges[1, 1]), int(g.edges[2, 1]))] += 1
        support = {seq[1:] for seq in exact}
        tv = 0.5 * sum(abs(counts.get(seq[1:], 0) / samples - float(p))
                       for seq, p in exact.items())
        ok = ok and set(counts) <= support and tv <= 0.01
        details.append(f"a={a}: TV={tv:.5f}")
    check(1, ok, "chain n=3, 1e6 samples; " + ", ".join(details))


# -- 2: mean degree counts vs closed forms ----------------------------------

def mean_count_z_scores(a, m, seed, oracle, n=10_000, samples=200):
    graphs = generate_bo_samples(BOParams(a=a, m=m, n=n, seed=seed),
                                 samples, threads=THREADS)
    degs = [g.degrees() for g in graphs]
    worst = 0.0
    for d in range(m, 11):
        frac = np.array([np.count_nonzero(dv == d) for dv in degs]) / n
        se = frac.std(ddof=1) / math.sqrt(samples)
        worst = max(worst, abs(float(frac.mean()) - oracle(d)) / se)
    return worst


def test_criterion_02_mean_degree_counts_match_closed_forms():
    z1 = mean_count_z_scores(1.0, 1, 101,
                             lambda d: 4.0 / (d * (d + 1) * (d + 2)))
    p = TheoryParams(a=0.5, m=2, n=10_000)
    z2 = mean_count_z_scores(0.5, 2, 202,
                             lambda d: expected_degree_count(p, d) / p.n)
    ok = z1 < 3.0 and z2 < 3.0
    check(2, ok, f"worst |z| over d<=10: a=1,m=1: {z1:.2f}; "
                 f"a=0.5,m=2: {z2:.2f} (limit 3)")


# -- 3: both estimators recover a planted on one large graph ----------------

def test_criterion_03_dual_estimates_recover_planted_a():
    g = generate_bo(BOParams(a=0.5, m=5, n=1_000_000, seed=1))
    t = graph_tables(simplify(g), 1.01)
    sel = select_range(t.tails, t.surface, 3.0, t.grid)
    a1, a2 = sel.degree_fit.a, sel.edge_fit.a
    ok = abs(a1 - 0.5) < 0.05 and abs(a2 - 0.5) < 0.05 and abs(a1 - a2) < 0.05
    check(3, ok,
          f"a1={a1:.4f} a2={a2:.4f} |a1-0.5|={abs(a1 - 0.5):.4f} "
          f"|a2-0.5|={abs(a2 - 0.5):.4f} |a1-a2|={abs(a1 - a2):.4f} "
          f"(limits 0.05) window=[{sel.range.lo},{sel.range.hi}]")


# -- 4: baseline models separate the two estimates --------------------------

def contrast_fits(g):
    """Fixed tail window anchored at the maximum degree, log-length half
    the observed span capped at 3 decades; identical rule for every model."""
    t = graph_tables(simplify(g), 1.01)
    d_max = int(t.hist.degrees[-1])
    span = math.log10(d_max)
    lo = max(1, math.floor(10.0 ** (span - min(3.0, span / 2.0))))
    rng = degree_range(t.grid, lo, d_max)
    return fit_degree(t.tails, rng), fit_edges(t.surface, pair_domain(rng))


def test_criterion_04_baseline_models_separate_the_estimates():
    deg = sample_power_law_degrees(GDSParams(n=1_000_000, gamma=2.276, seed=11))
    df, ef = contrast_fits(generate_configuration(deg, seed=12))
    gds_gap = abs(ef.a - df.a)
    gds_ok = abs(df.a - 0.29) <= 0.05 and gds_gap > 0.3
    gds = f"gds: a1={df.a:.4f} a2={ef.a:.4f} gap={gds_gap:.3f}"

    df, ef = contrast_fits(generate_holme_kim(HKParams(n=1_000_000, m=12,
                                                       seed=13)))
    hk_gap = abs(ef.a - df.a)
    hk_ok = 0.9 <= df.a <= 1.2 and (not ef.converged or hk_gap > 0.3)
    hk = (f"hk: a1={df.a:.4f} a2={ef.a:.4f} gap={hk_gap:.3f} "
          f"edge_converged={ef.converged}")
    check(4, gds_ok and hk_ok, f"{gds}; {hk}")


# -- 5: loop and multi-edge scaling across sizes ----------------------------

def test_criterion_05_multiplicity_scaling():
    rep = multiplicity_scaling_report(50, [10_000, 100_000, 1_000_000],
                                      0.5, 2, seed=5, threads=THREADS)
    loops_down = bool(np.all(np.diff(rep.loop_fractions) < 0))
    multi_down = bool(np.all(np.diff(rep.multi_fractions) < 0))
    ok = 0.35 <= rep.multi_slope <= 0.65 and loops_down and multi_down
    check(5, ok,
          f"multi slope={rep.multi_slope:.4f} (limits [0.35,0.65]); "
          f"loop fractions decreasing={loops_down}, "
          f"multi fractions decreasing={multi_down}")


# -- 6: tail-ratio surface vs the edge model shape --------------------------

def test_criterion_06_tail_ratio_matches_edge_model_shape():
    rep = edge_model_shape_check(0.276)
    ok = rep.max_rel_deviation < 0.10
    check(6, ok, f"a2=0.276: max relative deviation "
                 f"{rep.max_rel_deviation:.4f} over {len(rep.pairs)} pairs "
                 f"(limit 0.10)")


# -- 7: zero-residual parameter recovery ------------------------------------

def test_criterion_07_zero_residual_recovery():
    grid = log_grid(1.2, 10_000)
    dr = degree_range(grid, 10, 10_000)
    dom = pair_domain(dr)
    pts = dr.grid_points.astype(np.float64)
    gp = grid.points.astype(np.float64)
    k = len(grid)
    i, j = np.tril_indices(k)  # the surface's pairs d1 >= d2, row by row
    rng = np.random.default_rng(77)
    worst_a = worst_b = 0.0
    all_converged = all_monotone = True
    for _ in range(20):
        a_true = float(rng.uniform(0.05, 3.0))
        b_deg = float(5e5 * 10.0 ** a_true * 10.0 ** rng.uniform(-1.0, 1.0))
        b_edge = float(10.0 ** rng.uniform(-4.0, -2.0))
        vals = degree_model(a_true, b_deg, pts)
        tails = TailCounts(dr.grid_points,
                           np.concatenate([[vals[0] * 10.0], vals]))
        surf = RhoSurface(grid,
                          np.ones(i.size, np.int64), np.ones(i.size, np.int64),
                          edge_model(a_true, b_edge, gp[i], gp[j]))
        # default start plus a distant start, for both model families
        fits = [(fit_degree(tails, dr), b_deg),
                (fit_degree(tails, dr, initial=(2.9, b_deg * 300.0)), b_deg),
                (fit_edges(surf, dom), b_edge),
                (fit_edges(surf, dom, initial=(2.5, 1.0)), b_edge)]
        for fit, b_true in fits:
            all_converged = all_converged and fit.converged
            worst_a = max(worst_a, abs(fit.a - a_true))
            worst_b = max(worst_b, abs(fit.b - b_true) / b_true)
            all_monotone = all_monotone and all(
                y <= x for x, y in zip(fit.trace, fit.trace[1:]))
    ok = all_converged and all_monotone and worst_a < 1e-6 and worst_b < 1e-6
    check(7, ok,
          f"20 draws, 80 fits: worst |a-a*|={worst_a:.2e}, worst "
          f"rel b error={worst_b:.2e} (limit 1e-06); "
          f"converged={all_converged}, traces non-increasing={all_monotone}")


# -- 8: neighbor degrees fall with degree -----------------------------------

def test_criterion_08_neighbor_degree_profile_decreases():
    g = generate_bo(BOParams(a=0.276, m=12, n=1_000_000, seed=8))
    t = graph_tables(simplify(g), 1.01)
    prof, pts = t.profile, t.grid.points
    pts = pts[(pts >= 100) & (pts <= 10_000)]
    mask = np.isin(prof.d, pts)
    rho = float(spearmanr(prof.d[mask], prof.dnn[mask]).correlation)
    ok = rho < 0.0 and int(mask.sum()) >= 10
    check(8, ok, f"spearman(d, d_nn)={rho:.4f} over {int(mask.sum())} grid "
                 f"degrees in [1e2,1e4] (needs < 0)")


# -- 9: counting identities on random small graphs --------------------------

def brute_tables(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    deg = [len(a) for a in adj]
    ncounts = Counter(deg)
    xcounts = Counter()
    for v in range(n):
        for u in adj[v]:
            xcounts[(deg[v], deg[u])] += 1  # ordered pairs double the diagonal
    ucounts = Counter((max(deg[u], deg[v]), min(deg[u], deg[v]))
                      for u, v in edges)  # unordered cells, one per edge
    return deg, ncounts, xcounts, ucounts


def test_criterion_09_identities_on_random_small_graphs():
    rng = np.random.default_rng(9)
    graphs = failures = cells = 0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        iu = np.triu_indices(n, 1)
        keep = rng.random(iu[0].size) < rng.uniform(0.03, 0.5)
        edges = np.column_stack([iu[0][keep], iu[1][keep]])
        if edges.size == 0:
            edges = np.array([[0, 1]])
        g = Graph(n, edges)
        s = simplify(g)
        hist = degree_histogram(s)
        mat = edge_degree_matrix(s)
        tails = cumulative_degree(hist)
        xt = cumulative_edges(mat)
        prof = dnn_dict(d_nn_profile(mat))

        deg, ncounts, xcounts, ucounts = brute_tables(n, edges.tolist())
        bad = cells_dict(mat) != dict(ucounts)
        for d1 in set(deg):
            if d1 == 0:
                continue
            row = sum(c for (i, _), c in xcounts.items() if i == d1)
            col = sum(c for (_, j), c in xcounts.items() if j == d1)
            bad = bad or row != d1 * ncounts[d1]          # row sums
            bad = bad or bool(col % d1) or ncounts[d1] != col // d1  # recovery
            nbr = sum(j * c for (i, j), c in xcounts.items() if i == d1)
            bad = bad or not math.isclose(prof[d1], nbr / row, rel_tol=1e-12)
        probe = sorted(set(deg) | {0, max(deg) + 1})
        for d in range(max(deg) + 2):
            want = sum(c for j, c in ncounts.items() if j > d)
            bad = bad or int(tails.at(d)) != want
            cells += 1
        dd = [(deg[u], deg[v]) for u, v in edges]
        for d1 in probe:
            for d2 in probe:
                want = sum((2 if a == b else 1)
                           for a, b in dd
                           if max(a, b) > max(d1, d2)
                           and min(a, b) > min(d1, d2))
                bad = bad or int(xt.at(d1, d2)) != want
                cells += 1
        graphs += 1
        failures += bad
    ok = graphs == 100 and failures == 0
    check(9, ok, f"{graphs} graphs, {cells} tail cells verified, "
                 f"{failures} with any identity violation")


# -- 10: pipeline byte determinism ------------------------------------------

def run_cli(*argv):
    return main([str(a) for a in argv])


def pipeline_outputs(root, threads):
    root.mkdir()
    g = root / "g.tsv"
    rc = run_cli("generate", "--model", "bo", "--a", 0.5, "--m", 3,
                 "--n", 20000, "--seed", 7, "--threads", threads, "--out", g)
    rc += run_cli("analyze", "--graph", g, "--threads", threads,
                  "--out-prefix", root / "A")
    rc += run_cli("fit", "--degrees", root / "A.degrees.tsv",
                  "--edges", root / "A.edges.tsv",
                  "--xcells", root / "A.xcells.tsv",
                  "--auto-range", "--window", 1.5, "--bootstrap", 40,
                  "--seed", 3, "--threads", threads,
                  "--out-prefix", root / "F")
    rc += run_cli("bootstrap", "--target", "degrees",
                  "--degrees", root / "A.degrees.tsv",
                  "--d1-lo", 3, "--d1-hi", 100, "--iterations", 30,
                  "--seed", 9, "--threads", threads,
                  "--out-prefix", root / "B")
    # manifests carry wall-clock timings and the thread count; every other
    # artifact must be byte-identical across runs and thread counts
    files = {p.name: p.read_bytes() for p in sorted(root.iterdir())
             if not p.name.endswith(".manifest.json")}
    return rc, files


def test_criterion_10_pipeline_byte_deterministic(tmp_path):
    rc1, first = pipeline_outputs(tmp_path / "t1", 1)
    rc2, again = pipeline_outputs(tmp_path / "t1b", 1)
    rc4, multi = pipeline_outputs(tmp_path / "t4", 4)
    ok = rc1 == rc2 == rc4 == 0 and first == again == multi
    check(10, ok,
          f"{len(first)} artifacts byte-identical across repeat and "
          f"1-vs-4-thread runs: {first == again == multi} (exit codes "
          f"{rc1},{rc2},{rc4})")
