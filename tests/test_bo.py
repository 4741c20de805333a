from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import AttachmentState, assert_no_children, \
    attachment_distribution, chain_targets
from pagl import buckley_osthus
from pagl.buckley_osthus import (
    BOParams,
    _resolve_block,
    generate_bo,
    generate_bo_chain,
    generate_bo_samples,
    merge_blocks,
)
from pagl.graphs import Graph


def state_after(targets):
    st = AttachmentState()
    for t in targets:
        st.apply_step(t)
    return st


class TestAttachmentDistribution:
    def test_step2_exact_a1(self):
        # after the forced loop: deg(0)=2, denom (a+1)*2-1 = 3
        st = state_after([0])
        assert attachment_distribution(st, Fraction(1)) == [
            Fraction(2, 3),
            Fraction(1, 3),
        ]

    def test_step2_exact_a_half(self):
        # denom = (3/2)*2 - 1 = 2; masses 3/2 and 1/2
        st = state_after([0])
        assert attachment_distribution(st, Fraction(1, 2)) == [
            Fraction(3, 4),
            Fraction(1, 4),
        ]

    def test_sums_to_one_exactly(self):
        st = state_after([0, 0, 1, 2])
        for a in (Fraction(1, 3), Fraction(2), Fraction(7, 5)):
            assert sum(attachment_distribution(st, a)) == 1

    def test_rejects_nonpositive_a(self):
        with pytest.raises(ValueError):
            attachment_distribution(state_after([0]), 0)

    def test_state_tracks_degrees(self):
        st = state_after([0, 0, 1])
        assert st.degrees == [3, 2, 1]
        assert st.excess_list == [0, 0, 1]
        assert sum(st.degrees) == 2 * st.t


class TestChain:
    def test_first_step_is_loop(self):
        g = generate_bo_chain(0.7, 1, seed=0)
        assert g.n == 1
        assert g.edges.tolist() == [[0, 0]]

    def test_edge_k_starts_at_k(self):
        g = generate_bo_chain(0.5, 200, seed=3)
        assert g.edges[:, 0].tolist() == list(range(200))
        assert (g.edges[:, 1] <= g.edges[:, 0]).all()

    def test_step2_frequency_a1(self):
        # P(target 0 at step 2) = 2/3; 2e5 trials, tol ~ 4 standard errors
        hits = sum(
            generate_bo_chain(1.0, 2, seed=k).edges[1, 1] == 0
            for k in range(200_000)
        )
        assert hits / 200_000 == pytest.approx(2 / 3, abs=0.005)

    def test_kernel_variants_identical(self):
        # the block resolver against the step-by-step sampler, same draws
        rng = np.random.default_rng(11)
        n = 5000
        r, q = rng.random(n), rng.random(n)
        expected = chain_targets(r, q, 0.4)
        targets = np.empty(n, dtype=np.int32)
        _resolve_block(targets, 0, np.concatenate([r, q]), 0.4)
        assert targets.tolist() == expected

    def test_python_kernel_full_path(self):
        # generate_bo_chain draws r then q from the seeded stream
        rng = np.random.default_rng(5)
        r, q = rng.random(3000), rng.random(3000)
        expected = Graph(3000, list(enumerate(chain_targets(r, q, 0.8))))
        assert generate_bo_chain(0.8, 3000, seed=5) == expected

    def test_blocks_draw_r_then_q_each(self, monkeypatch):
        monkeypatch.setattr(buckley_osthus, "_BLOCK", 97)
        rng = np.random.default_rng(8)
        targets = []
        while len(targets) < 1000:
            length = min(97, 1000 - len(targets))
            r, q = rng.random(length), rng.random(length)
            targets = chain_targets(r, q, 0.3, targets)
        chain = generate_bo_chain(0.3, 1000, seed=8)
        assert chain.edges[:, 1].tolist() == targets

    @settings(max_examples=150, deadline=None)
    @example(a=1e-9, n=40, cuts=[], seed=0, top_r=[0], top_q=[])
    @example(a=1e-9, n=40, cuts=[0.5], seed=1, top_r=[0, 20], top_q=[])
    @given(
        a=st.one_of(st.sampled_from([1e-9, 1e-3, 50.0]),
                    st.floats(1e-6, 50.0)),
        n=st.integers(1, 3000),
        cuts=st.lists(st.floats(0.0, 1.0), max_size=4),
        seed=st.integers(0, 2**32 - 1),
        top_r=st.lists(st.integers(0, 2999), max_size=20),
        top_q=st.lists(st.integers(0, 2999), max_size=20),
    )
    def test_resolver_matches_sequential_oracle(self, a, n, cuts, seed,
                                                top_r, top_q):
        # tiny a makes nearly every step a copy, so pointer chains are as
        # deep as they get; r just below 1 picks the copy urn even at step 0
        # for tiny a, where only the forced loop saves it; q just below 1
        # takes the top index of either urn, where the clip sits
        rng = np.random.default_rng(seed)
        r, q = rng.random(n), rng.random(n)
        r[[k for k in top_r if k < n]] = np.nextafter(1.0, 0.0)
        q[[k for k in top_q if k < n]] = np.nextafter(1.0, 0.0)
        expected = chain_targets(r, q, a)
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        targets = np.full(n, -7, dtype=np.int32)
        for lo, hi in zip(bounds, bounds[1:]):
            rq = np.concatenate([r[lo:hi], q[lo:hi]])
            _resolve_block(targets, lo, rq, a)
        assert targets.tolist() == expected

    def test_bad_args(self):
        with pytest.raises(ValueError):
            generate_bo_chain(0.5, 0, seed=0)
        with pytest.raises(ValueError):
            generate_bo_chain(-1.0, 10, seed=0)


class TestMerge:
    def test_hand_example(self):
        chain = Graph(4, [(0, 0), (1, 0), (2, 1), (3, 2)])
        merged = merge_blocks(chain, 2)
        assert merged.n == 2
        assert merged.edges.tolist() == [[0, 0], [0, 0], [1, 0], [1, 1]]

    def test_m1_is_identity(self):
        g = generate_bo_chain(0.5, 50, seed=1)
        assert merge_blocks(g, 1) == g

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            merge_blocks(Graph(3, [(0, 1)]), 2)

    def test_generate_merges_its_chain(self):
        # generate_bo merges in place; merge_blocks leaves its input as is
        chain = generate_bo_chain(0.7, 1500, seed=5)
        ids = chain.edges.copy()
        merged = merge_blocks(chain, 3)
        assert np.array_equal(chain.edges, ids)
        assert generate_bo(BOParams(a=0.7, m=3, n=500, seed=5)) == merged


class TestGenerate:
    def test_shape(self):
        g = generate_bo(BOParams(a=0.5, m=3, n=100, seed=2))
        assert g.n == 100
        assert g.num_edges == 300

    def test_deterministic(self):
        p = BOParams(a=0.3, m=2, n=500, seed=9)
        assert generate_bo(p) == generate_bo(p)

    def test_seed_changes_graph(self):
        a = generate_bo(BOParams(a=0.3, m=2, n=500, seed=9))
        b = generate_bo(BOParams(a=0.3, m=2, n=500, seed=10))
        assert a != b

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BOParams(a=0.0, m=1, n=10)
        with pytest.raises(ValueError):
            BOParams(a=0.5, m=0, n=10)
        with pytest.raises(ValueError):
            BOParams(a=0.5, m=1, n=0)

    def test_chain_length_overflow(self):
        with pytest.raises(ValueError):
            BOParams(a=0.5, m=2**16, n=2**16)

    def test_samples_thread_invariant(self):
        p = BOParams(a=0.5, m=2, n=300, seed=4)
        serial = generate_bo_samples(p, 6, threads=1)
        for threads in (2, 3, 4):
            assert generate_bo_samples(p, 6, threads=threads) == serial
            assert generate_bo_samples(p, 0, threads=threads) == []
        assert_no_children()
        assert len({g.edges.tobytes() for g in serial}) == 6

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_fewer_than_one_thread(self, threads):
        with pytest.raises(ValueError, match="at least 1 thread"):
            generate_bo_samples(BOParams(a=0.5, m=2, n=30), 3, threads=threads)

