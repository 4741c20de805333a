from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pagl.baselines as bl
from oracles import adjacency, holme_kim_edges
from pagl.baselines import (
    GDSParams,
    HKParams,
    generate_configuration,
    generate_holme_kim,
    power_law_cap,
    sample_power_law_degrees,
)
from pagl.fitting import loglog_regression
from pagl.graphs import count_multiplicities, simplify


class TestDegreeSequence:
    def test_steep_exponent_is_almost_all_ones(self):
        d = sample_power_law_degrees(GDSParams(n=20000, gamma=50.0, seed=0))
        assert (d == 1).mean() > 0.999

    def test_even_sum(self):
        for seed in range(20):
            d = sample_power_law_degrees(GDSParams(n=501, gamma=2.2, seed=seed))
            assert d.sum() % 2 == 0

    def test_natural_cap(self):
        # n**(1/(gamma-1)) with gamma=3 and n=10000 -> 100
        assert power_law_cap(GDSParams(n=10000, gamma=3.0)) == 100
        d = sample_power_law_degrees(GDSParams(n=10000, gamma=3.0, seed=1))
        assert d.max() <= 100

    def test_target_edges_calibration(self):
        p = GDSParams(n=50000, gamma=2.1, target_edges=60000)
        cap = power_law_cap(p)
        assert cap < power_law_cap(GDSParams(n=50000, gamma=2.1))
        d = np.arange(1, cap + 1, dtype=np.float64)
        w = d**-2.1
        expected = p.n * float((d * w).sum() / w.sum()) / 2.0
        assert expected == pytest.approx(60000, rel=0.05)

    def test_infeasible_target(self):
        with pytest.raises(ValueError):
            power_law_cap(GDSParams(n=100, gamma=2.5, target_edges=10))

    def test_tail_exponent(self):
        d = sample_power_law_degrees(GDSParams(n=400000, gamma=2.5, seed=3))
        counts = Counter(d.tolist())
        ds = np.arange(1, 21)
        slope, _ = loglog_regression(ds, [counts[int(x)] for x in ds])
        assert slope == pytest.approx(-2.5, abs=0.1)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GDSParams(n=0, gamma=2.5)
        with pytest.raises(ValueError):
            GDSParams(n=10, gamma=1.0)
        with pytest.raises(ValueError):
            GDSParams(n=10, gamma=2.5, target_edges=0)


class TestConfigurationModel:
    def test_two_stubs_one_edge(self):
        g = generate_configuration([1, 1], seed=0)
        assert sorted(g.edges[0].tolist()) == [0, 1]

    def test_degree_two_alone_is_loop(self):
        g = generate_configuration([2], seed=0)
        assert g.edges.tolist() == [[0, 0]]

    def test_rejects_odd_sum(self):
        with pytest.raises(ValueError):
            generate_configuration([1, 1, 1], seed=0)

    def test_degrees_preserved(self):
        rng = np.random.default_rng(6)
        degrees = rng.integers(0, 8, size=200)
        if degrees.sum() % 2:
            degrees[0] += 1
        g = generate_configuration(degrees, seed=1)
        assert (g.degrees() == degrees).all()

    def test_matching_is_uniform(self):
        # degrees [1,1,1,1]: three perfect matchings, each with mass 1/3
        counts = Counter()
        K = 30000
        for seed in range(K):
            g = generate_configuration([1, 1, 1, 1], seed=seed)
            counts[frozenset(frozenset(e) for e in g.edges.tolist())] += 1
        assert len(counts) == 3
        for c in counts.values():
            assert c / K == pytest.approx(1 / 3, abs=0.01)


class TestHolmeKim:
    def test_edge_count_formula(self):
        for n, m in ((50, 1), (80, 3), (40, 7)):
            g = generate_holme_kim(HKParams(n=n, m=m, seed=0))
            assert g.num_edges == m * (n - m - 1) + m * (m + 1) // 2

    def test_simple_by_construction(self):
        g = generate_holme_kim(HKParams(n=2000, m=4, p_t=0.8, seed=2))
        rep = count_multiplicities(g)
        assert rep.loops == 0 and rep.multi_edges == 0

    def test_seed_graph_is_complete(self):
        g = generate_holme_kim(HKParams(n=10, m=3, seed=5))
        adj = adjacency(simplify(g))
        for u in range(4):
            assert set(adj[u]) >= set(range(4)) - {u}

    def test_deterministic(self):
        p = HKParams(n=1500, m=3, p_t=0.4, seed=7)
        assert generate_holme_kim(p) == generate_holme_kim(p)

    def test_triads_raise_clustering(self):
        def triangles(g):
            a = np.zeros((g.n, g.n), dtype=np.float64)
            for u, nbrs in adjacency(simplify(g)).items():
                for v in nbrs:
                    a[u, v] = 1.0
            return np.trace(a @ a @ a) / 6.0

        lo = triangles(generate_holme_kim(HKParams(n=1500, m=3, p_t=0.0, seed=1)))
        hi = triangles(generate_holme_kim(HKParams(n=1500, m=3, p_t=0.9, seed=1)))
        assert hi > 2.0 * lo

    @settings(deadline=None)
    @given(st.integers(1, 8).flatmap(
               lambda m: st.tuples(st.integers(m + 1, 400), st.just(m))),
           st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
           st.integers(0, 2**128))
    @example((2, 1), 0.0, 0)
    @example((400, 8), 1.0, 3)
    def test_matches_one_draw_oracle(self, nm, p_t, seed):
        n, m = nm
        expected = holme_kim_edges(n, m, p_t, seed)
        p = HKParams(n=n, m=m, p_t=p_t, seed=seed)
        assert np.array_equal(generate_holme_kim(p).edges, expected)
        # uniforms are read in stream order, so a block of 17 that runs
        # out mid-vertex gives the same graph
        with mock.patch.object(bl, "_HK_BLOCK", 17):
            assert np.array_equal(generate_holme_kim(p).edges, expected)

    @given(st.integers(1, 2**53))
    @example(2**31 - 1)
    @example(2**53)
    def test_index_needs_no_clip(self, d):
        # int(x * d) < d for the largest double x below 1, hence for all x
        assert int(np.nextafter(1.0, 0.0) * d) < d

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HKParams(n=3, m=3)
        with pytest.raises(ValueError):
            HKParams(n=10, m=0)
        with pytest.raises(ValueError):
            HKParams(n=10, m=2, p_t=1.5)
