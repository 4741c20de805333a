import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import hyp2f1, zeta

import pagl.theory
from oracles import assert_no_children
from pagl.buckley_osthus import BOParams, _chain_targets, \
    generate_bo_chain, generate_bo_samples, merge_blocks
from pagl.graphs import count_multiplicities
from pagl.cli import main
from pagl.theory import (
    MAX_SHAPE_D1,
    MAX_SHAPE_PAIRS,
    MAX_SHAPE_TERMS,
    TheoryParams,
    _hurwitz_zeta,
    _loops_and_excess,
    _pfaff_2f1,
    edge_model_shape_check,
    expected_degree_count,
    expected_edge_count,
    log_beta,
    log_gamma,
    multiplicity_scaling_report,
    tail_ratio,
)

mpmath = pytest.importorskip("mpmath")


class TestLogGamma:
    def test_against_stdlib(self):
        zs = [1e-3, 0.1, 0.49, 0.5, 0.51, 1.0, 2.5, 17.0, 1234.5, 1e6, 1e9]
        for z in zs:
            assert log_gamma(z) == pytest.approx(math.lgamma(z), rel=1e-12)

    def test_vectorized(self):
        z = np.geomspace(0.01, 1e6, 400)
        expect = np.array([math.lgamma(v) for v in z])
        np.testing.assert_allclose(log_gamma(z), expect, rtol=1e-12, atol=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(np.array([1.0, -2.0]))


class TestLogBeta:
    def test_against_stdlib(self):
        for x, y in [(0.3, 7.0), (2.5, 3.5), (40.0, 1.2), (1e-2, 1e-2)]:
            expect = math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)
            assert log_beta(x, y) == pytest.approx(expect, rel=1e-12)

    def test_against_quadrature(self):
        # B(x, y) = integral of t**(x-1) (1-t)**(y-1) over (0, 1); the
        # substitution u = t**x removes the endpoint singularity
        mpmath.mp.dps = 30
        for x, y in [(2.5, 3.5), (0.3, 7.0), (40.0, 1.2)]:
            q = mpmath.quad(
                lambda u: (1 - u ** (1.0 / x)) ** (y - 1), [0, 1]
            ) / x
            assert math.exp(log_beta(x, y)) == pytest.approx(float(q), rel=1e-10)

    def test_symmetry(self):
        assert log_beta(3.7, 0.4) == pytest.approx(log_beta(0.4, 3.7), rel=1e-14)


class TestExpectedDegreeCount:
    def test_a1_m1_closed_form(self):
        # reduces to 4n / (d (d+1) (d+2))
        p = TheoryParams(a=1.0, m=1, n=600)
        assert expected_degree_count(p, 1) == pytest.approx(400.0, rel=1e-12)
        assert expected_degree_count(p, 2) == pytest.approx(100.0, rel=1e-12)
        for d in (3, 10, 57):
            assert expected_degree_count(p, d) == pytest.approx(
                4 * 600 / (d * (d + 1) * (d + 2)), rel=1e-11
            )

    def test_counts_sum_to_n(self):
        # partial sum plus the exact beta-telescoped remainder equals n
        for a, m in [(0.4, 1), (0.8, 3), (1.7, 2)]:
            p = TheoryParams(a=a, m=m, n=1.0)
            d = np.arange(m, 5000)
            partial = expected_degree_count(p, d).sum()
            remainder = math.exp(
                log_beta(5000 - m + m * a, a + 1.0) - log_beta(m * a, a + 1.0)
            )
            assert partial + remainder == pytest.approx(1.0, abs=1e-9)

    def test_tail_decay_exponent(self):
        for a in (0.3, 1.0, 2.0):
            p = TheoryParams(a=a, m=1, n=1.0)
            ratio = expected_degree_count(p, 30000) / expected_degree_count(p, 3000)
            assert ratio == pytest.approx(10.0 ** -(2.0 + a), rel=0.02)

    def test_rejects_below_m(self):
        with pytest.raises(ValueError):
            expected_degree_count(TheoryParams(a=0.5, m=3), 2)


class TestExpectedEdgeCount:
    def test_a1_m1_closed_form(self):
        # reduces to 4n / (d1**2 d2**2)
        p = TheoryParams(a=1.0, m=1, n=100)
        for d1, d2 in [(1, 1), (5, 2), (40, 3)]:
            assert expected_edge_count(p, d1, d2) == pytest.approx(
                400.0 / (d1 * d1 * d2 * d2), rel=1e-12
            )

    def test_doubling_scale(self):
        # doubling both degrees multiplies the count by 2**(1-a) / 16
        for a in (0.3, 0.7, 1.0, 1.6):
            p = TheoryParams(a=a, m=2, n=1000)
            r = expected_edge_count(p, 80, 14) / expected_edge_count(p, 40, 7)
            assert r == pytest.approx(2.0 ** (1.0 - a) / 16.0, rel=1e-12)

    def test_rejects_below_m(self):
        with pytest.raises(ValueError):
            expected_edge_count(TheoryParams(a=0.5, m=2), 1, 5)


class TestDegreeCountsMonteCarlo:
    @pytest.mark.parametrize("a,m", [(0.3, 1), (0.3, 2), (0.5, 1), (0.5, 2),
                                     (1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)])
    def test_simulated_counts_match(self, a, m):
        K, n = 30, 20000
        seed = 1000 * m + int(100 * a)
        samples = generate_bo_samples(BOParams(a=a, m=m, n=n, seed=seed), K, threads=4)
        p = TheoryParams(a=a, m=m, n=n)
        for d in (m, m + 1, m + 3, m + 8):
            counts = np.array([(g.degrees() == d).sum() for g in samples], dtype=float)
            se = counts.std(ddof=1) / math.sqrt(K)
            oracle = expected_degree_count(p, d)
            # 4 standard errors of noise plus slack for the bounded
            # finite-n additive error of the expectation formula
            assert abs(counts.mean() - oracle) <= 4.0 * se + 0.005 * oracle + 1.0


class TestSpecialFunctions:
    """The two series behind tail_ratio, against scipy and mpmath over
    the arguments rho-shape reaches."""

    A = np.geomspace(1e-3, 44.0, 41)
    X = np.append(np.geomspace(1e-6, 1.0, 300), [0.5, 1.0 - 1e-12, 1.0])
    S = np.linspace(2.0, 48.0, 47)
    Q = np.append(np.geomspace(2.0, 1e5 + 1.0, 200), np.arange(2.0, 40.0))

    def test_pfaff_2f1_against_scipy(self):
        for a in self.A:
            np.testing.assert_allclose(_pfaff_2f1(a, self.X),
                                       hyp2f1(a - 1.0, a, a + 1.0, -self.X),
                                       rtol=1e-13, atol=0)

    def test_pfaff_2f1_against_mpmath(self):
        mpmath.mp.dps = 30
        for a in (1e-3, 0.276, 0.5, 1.0, 2.5, 17.0, 44.0):
            for x in (1e-6, 0.01, 0.3, 0.99, 1.0):
                expect = float(mpmath.hyp2f1(a - 1, a, a + 1, -mpmath.mpf(x)))
                assert _pfaff_2f1(a, x) == pytest.approx(expect, rel=1e-13)

    def test_pfaff_2f1_scalar_and_array(self):
        assert isinstance(_pfaff_2f1(0.5, 1.0), float)
        assert _pfaff_2f1(0.5, np.array([1.0]))[0] == _pfaff_2f1(0.5, 1.0)

    def test_hurwitz_zeta_against_scipy(self):
        for s in self.S:
            np.testing.assert_allclose(_hurwitz_zeta(s, self.Q), zeta(s, self.Q),
                                       rtol=1e-13, atol=0)

    def test_hurwitz_zeta_against_mpmath(self):
        mpmath.mp.dps = 30
        for s in (2.0, 2.276, 3.5, 4.0, 11.0, 30.0, 48.0):
            for q in (2.0, 3.0, 11.0, 101.0, 1e4 + 1.0, 1e5 + 1.0):
                expect = float(mpmath.zeta(s, q))
                assert _hurwitz_zeta(s, q) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("a", [0.276, 0.5, 1.0])
    def test_tail_ratio_matches_scipy_formula(self, a):
        # the same sums with scipy's hyp2f1 and zeta, on the default grid
        def inner_tail(L, j):
            f = (L + j) ** (1.0 - a) * L**-2.0
            fp = ((1.0 - a) * (L + j) ** (-a) * L**-2.0
                  - 2.0 * (L + j) ** (1.0 - a) * L**-3.0)
            return (L ** (-a) / a * hyp2f1(a - 1.0, a, a + 1.0, -j / L)
                    + 0.5 * f - fp / 12.0)

        def scipy_ratio(d1, d2):
            L = d1 + 1.0
            j = np.arange(d2 + 1, d1 + 1, dtype=np.float64)
            region_a = np.sum(j**-2.0 * inner_tail(L, j))
            c3 = (1.0 - a) * 2.0**-a - 2.0 ** (2.0 - a)
            region_b = (hyp2f1(a - 1.0, a, a + 1.0, -1.0) / a * zeta(2.0 + a, L)
                        + 2.0**-a * zeta(3.0 + a, L)
                        - c3 / 12.0 * zeta(4.0 + a, L))
            return (region_a + region_b) / (zeta(2.0 + a, L) * zeta(2.0 + a, d2 + 1.0))

        pairs = edge_model_shape_check(a).pairs
        assert len(pairs) == 25
        for d1, d2 in pairs:
            assert tail_ratio(d1, d2, a) == pytest.approx(scipy_ratio(d1, d2),
                                                          rel=1e-13)


def brute_tail_ratio(d1, d2, a, i_max=30000, j_max=2000):
    """Direct double sum; accurate only for a >= 1.5 (fast decay)."""
    total = 0.0
    for j in range(d2 + 1, j_max + 1):
        i = np.arange(max(j, d1 + 1), i_max + 1, dtype=np.float64)
        total += float((j**-2.0 * (i + j) ** (1.0 - a) * i**-2.0).sum())
    return total / (zeta(2.0 + a, d1 + 1.0) * zeta(2.0 + a, d2 + 1.0))


class TestTailRatio:
    def test_inner_tail_brute_force(self):
        # truncated sum plus hypergeometric integral remainder; the
        # remainder is < 0.1% of the value so errors there cannot hide a
        # real defect at this tolerance
        from pagl.theory import _inner_tail

        for L, j, a in [(11.0, 4.0, 0.5), (21.0, 7.0, 0.276), (11.0, 11.0, 1.5)]:
            i = np.arange(int(L), 20_000_001, dtype=np.float64)
            partial = float(((i + j) ** (1.0 - a) * i**-2.0).sum())
            x = 20_000_001.0
            rem = x ** (-a) / a * hyp2f1(a - 1.0, a, a + 1.0, -j / x)
            assert _inner_tail(L, j, a) == pytest.approx(partial + rem, rel=1e-5)

    @pytest.mark.parametrize("d1,d2,a", [(20, 5, 1.5), (50, 50, 1.5), (30, 10, 2.0)])
    def test_against_brute_force(self, d1, d2, a):
        # every dropped term is positive, so the finite sum is a strict
        # lower bound; the allowance covers its measured truncation gap
        brute = brute_tail_ratio(d1, d2, a)
        value = tail_ratio(d1, d2, a)
        assert brute < value <= brute * 1.001

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            tail_ratio(5, 10, 0.5)
        with pytest.raises(ValueError):
            tail_ratio(10, 5, -1.0)


class TestShapeCheck:
    @pytest.mark.parametrize("a", [0.276, 0.5, 0.75])
    def test_model_shape_holds_in_regime(self, a):
        report = edge_model_shape_check(a)
        assert report.max_rel_deviation < 0.10

    def test_constant_positive(self):
        report = edge_model_shape_check(0.5)
        assert report.constant > 0
        assert len(report.pairs) == len(report.ratios)

    def test_small_ratio_pairs_deviate_more(self):
        near = edge_model_shape_check(0.5, ratio_range=(1.2, 3.0))
        far = edge_model_shape_check(0.5)
        assert near.max_rel_deviation > far.max_rel_deviation


    @pytest.mark.parametrize("a2, kwargs", [
        (math.inf, {}), (math.nan, {}), (0.0, {}),
        (0.5, {"ratio_range": (math.nan, 10.0)}),
        (0.5, {"ratio_range": (10.0, math.inf)}),
        (0.5, {"ratio_range": (0.5, 10.0)}),
        (0.5, {"grid_size": 0}),
        (50.0, {}), (1e308, {}),
    ])
    def test_rejects_bad_parameters(self, a2, kwargs):
        with pytest.raises(ValueError):
            edge_model_shape_check(a2, **kwargs)

    @pytest.mark.parametrize("a2, pair", [
        (50.0, "56000:56"), (1000.0, "100:10"), (1e308, "100:10"),
    ])
    def test_sums_out_of_float_range(self, a2, pair, recwarn):
        # the zeta product underflows, or the shape overflows
        with pytest.raises(ValueError) as err:
            edge_model_shape_check(a2)
        assert str(err.value) == (f"tail ratio or edge model shape at pair "
                                  f"{pair} is not a positive finite float "
                                  f"for a2={a2!r}")
        assert not recwarn.list

    @pytest.mark.parametrize("d2_range", [(0, 100), (-5, 100), (10, 0)])
    def test_rejects_d2_bounds_below_one(self, d2_range, recwarn):
        with pytest.raises(ValueError, match="d2 bounds must be >= 1"):
            edge_model_shape_check(0.5, d2_range=d2_range)
        assert not recwarn.list

    @pytest.mark.parametrize("kwargs", [
        {"grid_size": math.isqrt(MAX_SHAPE_PAIRS) + 1, "d2_range": (10, 10**4)},
        {"pairs": [(20, 2)] * (MAX_SHAPE_PAIRS + 1)},
    ], ids=["grid", "pairs"])
    def test_rejects_pair_sets_above_limit_before_any_ratio(self, kwargs,
                                                            monkeypatch):
        def no_ratio(*args):
            raise AssertionError("tail_ratio called")

        monkeypatch.setattr(pagl.theory, "tail_ratio", no_ratio)
        with pytest.raises(ValueError, match="exceed the limit"):
            edge_model_shape_check(0.5, **kwargs)

    @pytest.mark.parametrize("kwargs, pair", [
        ({"ratio_range": (1e9, 1e9), "d2_range": (1000, 1000),
          "grid_size": 1}, "1000000000000:1000"),
        ({"ratio_range": (10.0, 1e308)}, "inf:10"),
        ({"pairs": [(20, 2), (MAX_SHAPE_D1 + 1, 2)]}, f"{MAX_SHAPE_D1 + 1}:2"),
    ], ids=["ratio-1e9", "ratio-1e308", "pairs"])
    def test_rejects_d1_above_limit_before_any_ratio(self, kwargs, pair,
                                                      monkeypatch, recwarn):
        monkeypatch.setattr(pagl.theory, "tail_ratio", None)
        with pytest.raises(ValueError, match=f"pair {pair} has a d1 above"):
            edge_model_shape_check(0.5, **kwargs)
        assert not recwarn.list

    @pytest.mark.parametrize("kwargs", [
        {"ratio_range": (990.0, 1000.0), "d2_range": (990, 1000),
         "grid_size": 10},
        {"pairs": [(MAX_SHAPE_D1, 1)] * (MAX_SHAPE_TERMS // MAX_SHAPE_D1 + 1)},
    ], ids=["grid", "pairs"])
    def test_rejects_term_sums_above_limit_before_any_ratio(self, kwargs,
                                                            monkeypatch):
        monkeypatch.setattr(pagl.theory, "tail_ratio", None)
        with pytest.raises(ValueError,
                           match=f"above the limit of {MAX_SHAPE_TERMS}"):
            edge_model_shape_check(0.5, **kwargs)


class TestLoopsAndExcess:
    # the first example is one block of loops at (0, 0), which a counter
    # must not count as parallel; the second has a block whose first and
    # third columns agree and its second differs
    @settings(max_examples=200, deadline=None)
    @example(a=1e-6, m=2, n=1, seed=0)
    @example(a=0.5, m=3, n=3, seed=1)
    @example(a=50.0, m=6, n=400, seed=2)
    @given(a=st.floats(1e-6, 50.0), m=st.integers(1, 6),
           n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_merged_graph(self, a, m, n, seed):
        rep = count_multiplicities(
            merge_blocks(generate_bo_chain(a, m * n, seed), m))
        assert (_loops_and_excess(_chain_targets(a, m * n, seed), m)
                == (rep.loops, rep.multi_edges))


class TestMultiplicityScaling:
    def test_sublinear_growth(self):
        rep = multiplicity_scaling_report(
            10, [400, 800, 1600, 3200], a=0.5, m=2, seed=5, threads=4
        )
        # excess edges grow like n**(1-a), far from linear
        assert 0.2 < rep.multi_slope < 0.8
        assert (rep.mean_multi > 0).all()
        # per-edge fractions vanish with n
        assert rep.multi_fractions[-1] < rep.multi_fractions[0]
        assert rep.loop_fractions[-1] < rep.loop_fractions[0]

    def test_means_match_the_per_size_pipeline(self):
        # sample k at the i-th size uses child k of the i-th base.spawn(1)
        n_list, samples, m = [40, 300, 2000], 5, 3
        rep = multiplicity_scaling_report(samples, n_list, a=0.4, m=m,
                                          seed=9, threads=2)
        base = np.random.SeedSequence(9)
        for i, n in enumerate(n_list):
            counts = [count_multiplicities(
                merge_blocks(generate_bo_chain(0.4, m * n, child), m))
                for child in base.spawn(1)[0].spawn(samples)]
            means = np.array([[c.loops, c.multi_edges] for c in counts]).mean(0)
            assert (rep.mean_loops[i], rep.mean_multi[i]) == tuple(means)
        assert_no_children()

    def test_multi_slope_is_nan_when_a_mean_is_zero(self):
        # at m = 1 there are no parallel edges, so log(mean_multi) is -inf
        rep = multiplicity_scaling_report(3, [10, 100], a=0.5, m=1)
        assert rep.mean_multi.tolist() == [0.0, 0.0]
        assert math.isnan(rep.multi_slope)
        assert math.isfinite(rep.loops_slope)

    def test_thread_invariant(self):
        # one sample per size leaves fewer tasks (3) than the most workers (4)
        for samples in (6, 1):
            args = (samples, [300, 1200, 5000])
            one = multiplicity_scaling_report(*args, a=0.3, m=3, seed=2,
                                              threads=1)
            for threads in (2, 3, 4):
                two = multiplicity_scaling_report(*args, a=0.3, m=3, seed=2,
                                                  threads=threads)
                for name in ("mean_loops", "mean_multi", "loop_fractions",
                             "multi_fractions"):
                    assert (getattr(one, name).tobytes()
                            == getattr(two, name).tobytes())
                assert ((one.multi_slope, one.loops_slope)
                        == (two.multi_slope, two.loops_slope))
        assert_no_children()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ValueError, match="at least 1 thread"):
            multiplicity_scaling_report(2, [100, 200], a=0.5, m=1,
                                        threads=threads)

    def test_failed_worker_is_reported_and_reaped(self, monkeypatch, tmp_path,
                                                  capsys):
        caller, count = os.getpid(), pagl.theory._loops_and_excess

        def worker_fails(targets, m):
            if os.getpid() != caller:
                raise RuntimeError("worker fault")
            return count(targets, m)

        monkeypatch.setattr(pagl.theory, "_loops_and_excess", worker_fails)
        with pytest.raises(ChildProcessError, match="exited with status 1"):
            multiplicity_scaling_report(4, [100, 200], a=0.5, m=1, threads=2)
        assert_no_children()
        assert main(["theory", "multiplicity", "--a", "0.5", "--m", "1",
                     "--n-list", "100,200", "--samples", "4", "--threads", "2",
                     "--out-prefix", str(tmp_path / "M")]) == 4
        assert "pagl: worker failure: worker for iterations" in capsys.readouterr().err
        assert_no_children()

    def test_requires_a_below_one(self):
        with pytest.raises(ValueError):
            multiplicity_scaling_report(2, [100, 200], a=1.5, m=1)

    def test_requires_increasing_sizes(self):
        with pytest.raises(ValueError):
            multiplicity_scaling_report(2, [200, 100], a=0.5, m=1)

    @pytest.mark.parametrize("samples", [0, -2])
    def test_requires_a_sample(self, samples):
        with pytest.raises(ValueError, match="at least 1 sample"):
            multiplicity_scaling_report(samples, [100, 200], a=0.5, m=1)

    @pytest.mark.parametrize("m, n_list, message", [
        (0, [100, 200], "m must be at least 1, got m=0"),
        (2, [0, 100], "every n must be at least 1, got n=0"),
        (2, [100, 2**30], "m*n = 2147483648 exceeds the 32-bit id limit "
                          "2147483647"),
    ], ids=["m-0", "n-0", "m-times-n"])
    def test_rejects_sizes_before_any_worker(self, m, n_list, message,
                                             monkeypatch, tmp_path, capsys):
        def no_fork():
            raise AssertionError("a worker was started")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError) as err:
            multiplicity_scaling_report(2, n_list, a=0.5, m=m, threads=2)
        assert str(err.value) == message
        assert main(["theory", "multiplicity", "--a", "0.5", "--m", str(m),
                     "--n-list", ",".join(map(str, n_list)), "--samples", "2",
                     "--threads", "2", "--out-prefix",
                     str(tmp_path / "M")]) == 2
        assert capsys.readouterr().err == f"pagl: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_requires_two_sizes(self):
        with pytest.raises(ValueError, match="at least 2 sizes"):
            multiplicity_scaling_report(2, [100], a=0.5, m=1)
