"""Tests for the kernel bodies and their cost accounting (paper §6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from repro.core.kernels import (
    BLOCK_TOKEN_CAPACITY,
    KernelConfig,
    SamplingStats,
    accumulate_phi,
    gibbs_sample_chunk,
    phi_reduce_cost,
    recount_theta,
    sampling_cost,
    sampling_launch_plan,
    update_phi_cost,
    update_theta_cost,
)
from repro.core.model import LDAHyperParams, LDAState, SparseTheta, check_state_invariants
from repro.core.sampler import compute_pstar, dense_conditional


def _run_iterations(corpus, hyper, iterations, seed=0, config=None):
    chunk = corpus.to_chunk()
    state = LDAState.initialize(chunk, hyper, seed=seed)
    rng = np.random.default_rng(seed + 1)
    stats = None
    for _ in range(iterations):
        new_topics, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper, rng, config,
        )
        state.topics = new_topics
        state.theta = recount_theta(chunk, new_topics, hyper.num_topics)
        state.phi = accumulate_phi(chunk, new_topics, hyper.num_topics)
        state.n_k = state.phi.sum(axis=1, dtype=np.int64)
    return chunk, state, stats


class TestGibbsSampleChunk:
    def test_preserves_inputs(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        phi_before = state.phi.copy()
        topics_before = state.topics.copy()
        gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, rng,
        )
        assert np.array_equal(state.phi, phi_before)
        assert np.array_equal(state.topics, topics_before)

    def test_output_shape_dtype_range(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        out, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, rng,
        )
        assert out.shape == state.topics.shape
        assert out.dtype == state.topics.dtype
        assert out.min() >= 0 and out.max() < hyper8.num_topics
        assert stats.num_tokens == chunk.num_tokens

    def test_deterministic_given_rng_state(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        a, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(7),
        )
        b, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(7),
        )
        assert np.array_equal(a, b)

    def test_slab_size_does_not_change_results(self, small_corpus, hyper8):
        """The token-slab memory bound is purely an implementation
        detail: any slab size must give identical samples."""
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        big = KernelConfig(token_slab=1 << 22)
        tiny = KernelConfig(token_slab=64)
        a, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(3), big,
        )
        b, _ = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, np.random.default_rng(3), tiny,
        )
        assert np.array_equal(a, b)

    def test_kd_sum_matches_theta(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        _, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k,
            hyper8, rng,
        )
        row_len = np.diff(state.theta.indptr)
        expected = int(row_len[chunk.token_doc].sum())
        assert stats.kd_sum == expected

    def test_marginal_distribution_of_one_token(self, hyper8):
        """Single-token corpus: the kernel's draw must follow Eq 1 with
        the frozen counts (delayed-update semantics, no self-exclusion)."""
        from repro.corpus.corpus import Corpus

        corpus = Corpus.from_documents([[0, 1, 1, 2], [0, 0, 2]], num_words=3)
        chunk = corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=4)
        # Token 0 in word-sorted order: word = expanded[0], doc known.
        v = int(chunk.token_word_expanded()[0])
        d = int(chunk.token_doc[0])
        ps = compute_pstar(
            state.phi[:, v].astype(np.float64), state.n_k, hyper8.beta, 3
        )
        t_topics, t_counts = state.theta.row(d)
        theta_dense = np.zeros(hyper8.num_topics)
        theta_dense[t_topics.astype(np.int64)] = t_counts
        p = dense_conditional(theta_dense, ps, hyper8.alpha)
        p /= p.sum()
        draws = []
        for s in range(4000):
            out, _ = gibbs_sample_chunk(
                chunk, state.topics, state.theta, state.phi, state.n_k,
                hyper8, np.random.default_rng(s),
            )
            draws.append(int(out[0]))
        observed = np.bincount(draws, minlength=hyper8.num_topics)
        mask = p * len(draws) >= 5
        _, pvalue = chisquare(
            observed[mask], p[mask] / p[mask].sum() * observed[mask].sum()
        )
        assert pvalue > 1e-4

    def test_likelihood_improves(self, medium_corpus):
        from repro.core.likelihood import log_likelihood_per_token

        hyper = LDAHyperParams(num_topics=16)
        chunk, state0, _ = _run_iterations(medium_corpus, hyper, 1, seed=0)
        ll0 = log_likelihood_per_token(
            state0.theta, state0.phi, state0.n_k, chunk.doc_lengths, hyper
        )
        chunk, state, _ = _run_iterations(medium_corpus, hyper, 12, seed=0)
        ll1 = log_likelihood_per_token(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper
        )
        assert ll1 > ll0 + 0.1

    def test_invariants_after_iterations(self, small_corpus, hyper8):
        _, state, _ = _run_iterations(small_corpus, hyper8, 5, seed=1)
        check_state_invariants(state)

    def test_theta_sparsifies(self, medium_corpus):
        """Fig 7's mechanism: mean K_d decreases as the model converges."""
        hyper = LDAHyperParams(num_topics=16)
        _, _, stats_early = _run_iterations(medium_corpus, hyper, 1, seed=0)
        _, _, stats_late = _run_iterations(medium_corpus, hyper, 15, seed=0)
        assert stats_late.mean_kd < stats_early.mean_kd

    def test_empty_chunk(self, hyper8, rng):
        from repro.corpus.corpus import Corpus

        corpus = Corpus.from_documents([[]], num_words=3)
        chunk = corpus.to_chunk()
        topics = np.zeros(0, dtype=np.uint16)
        theta = SparseTheta.from_assignments(chunk, topics, 8)
        phi = np.zeros((8, 3), dtype=np.int32)
        out, stats = gibbs_sample_chunk(
            chunk, topics, theta, phi, np.zeros(8, dtype=np.int64),
            hyper8, rng,
        )
        assert out.size == 0
        assert stats.num_tokens == 0


class TestUpdateKernels:
    def test_recount_theta_matches_assignments(self, small_corpus, hyper8, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        theta = recount_theta(chunk, topics, 8)
        brute = np.zeros((chunk.num_docs, 8), dtype=np.int64)
        np.add.at(brute, (chunk.token_doc.astype(np.int64), topics.astype(np.int64)), 1)
        assert np.array_equal(theta.to_dense(), brute)

    def test_accumulate_phi_matches_assignments(self, small_corpus, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        phi = accumulate_phi(chunk, topics, 8)
        words = chunk.token_word_expanded().astype(np.int64)
        brute = np.zeros((8, chunk.num_words), dtype=np.int64)
        np.add.at(brute, (topics.astype(np.int64), words), 1)
        assert np.array_equal(phi, brute)
        assert phi.sum() == chunk.num_tokens

    def test_accumulate_phi_into_out(self, small_corpus, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        out = np.full((8, chunk.num_words), 99, dtype=np.int32)
        result = accumulate_phi(chunk, topics, 8, out=out)
        assert result is out
        assert out.sum() == chunk.num_tokens  # zeroed first

    def test_accumulate_phi_shape_check(self, small_corpus, rng):
        chunk = small_corpus.to_chunk()
        topics = rng.integers(0, 8, chunk.num_tokens).astype(np.uint16)
        with pytest.raises(ValueError):
            accumulate_phi(chunk, topics, 8, out=np.zeros((4, 4), dtype=np.int32))


class TestLaunchPlan:
    def test_light_words_one_block_each(self):
        indptr = np.array([0, 3, 3, 10])  # words with 3, 0, 7 tokens
        blocks, segments = sampling_launch_plan(indptr)
        assert blocks == segments == 2  # zero-token word gets none

    def test_heavy_word_splits(self):
        heavy = 3 * BLOCK_TOKEN_CAPACITY + 1
        indptr = np.array([0, heavy])
        blocks, _ = sampling_launch_plan(indptr)
        assert blocks == 4

    def test_empty_chunk_plan(self):
        blocks, segments = sampling_launch_plan(np.array([0, 0, 0]))
        assert blocks == segments == 1


class TestCosts:
    HYPER = LDAHyperParams(num_topics=64)

    def _stats(self, T=10_000, kd=20.0):
        return SamplingStats(
            num_tokens=T, kd_sum=int(T * kd), p1_draws=0,
            num_word_segments=100, num_blocks=100,
        )

    def test_sampling_cost_positive_and_memory_bound(self):
        cost = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        assert cost.total_bytes > 0
        assert cost.flops_per_byte < 1.0  # the paper's §3 conclusion

    def test_dense_sampler_costs_more(self):
        sparse = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        dense = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(sparse_sampler=False)
        )
        assert dense.total_bytes > 1.3 * sparse.total_bytes

    def test_dense_sampler_gap_grows_with_k(self):
        """At paper-scale K the O(K) sampler is catastrophically worse —
        the sparsity-aware design's whole point (§6.1.1)."""
        hyper = LDAHyperParams(num_topics=1024)
        sparse = sampling_cost(self._stats(kd=40), hyper, 1000, KernelConfig())
        dense = sampling_cost(
            self._stats(kd=40), hyper, 1000, KernelConfig(sparse_sampler=False)
        )
        assert dense.total_bytes > 8 * sparse.total_bytes

    def test_sharing_reduces_staging(self):
        shared = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        private = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(share_p2_tree=False)
        )
        assert private.bytes_read > shared.bytes_read

    def test_compression_reduces_traffic(self):
        comp = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        wide = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(compressed=False)
        )
        assert wide.total_bytes > comp.total_bytes

    def test_reuse_pstar_reduces_traffic(self):
        reuse = sampling_cost(self._stats(), self.HYPER, 1000, KernelConfig())
        no_reuse = sampling_cost(
            self._stats(), self.HYPER, 1000, KernelConfig(reuse_pstar=False)
        )
        assert no_reuse.bytes_read > reuse.bytes_read

    def test_cost_monotone_in_kd(self):
        a = sampling_cost(self._stats(kd=10), self.HYPER, 1000, KernelConfig())
        b = sampling_cost(self._stats(kd=100), self.HYPER, 1000, KernelConfig())
        assert b.total_bytes > a.total_bytes

    def test_update_costs_positive(self):
        t = update_theta_cost(10_000, 100, 2_000, self.HYPER, KernelConfig())
        p = update_phi_cost(10_000, 1000, self.HYPER, KernelConfig())
        r = phi_reduce_cost(64, 1000, KernelConfig())
        for c in (t, p, r):
            assert c.total_bytes > 0

    def test_update_phi_has_atomics(self):
        p = update_phi_cost(10_000, 1000, self.HYPER, KernelConfig())
        assert p.atomic_ops == 10_000
        assert p.atomic_locality > 0.9  # word-sorted locality (§6.2)



def _levels(n, fanout):
    """Search levels of an R-way index tree over n leaves: ceil(log_R n)."""
    levels = 0
    while n > 1:
        n, levels = -(-n // fanout), levels + 1
    return levels


def _reference_sample(chunk, theta, phi, n_k, hyper, u, fanout, tol=1e-9):
    """Token-at-a-time Eq 6 draw: inverse CDF over the 2K entries
    ``[θ_d·p*_w, α·p*_w]`` with the kernel's uniform for each token.

    Returns the topics, the counts the kernel reports, a mask of tokens
    whose draw lies within *tol* (relative) of a cumulative boundary,
    and whether any such token sits on the sparse/dense boundary.
    """
    K, V = hyper.num_topics, chunk.num_words
    pstar = (phi + hyper.beta) / (n_k + hyper.beta * V)[:, None]
    dense_theta = theta.to_dense()
    kd = theta.row_lengths()
    words = chunk.token_word_expanded()
    T = chunk.num_tokens
    topics = np.empty(T, dtype=np.int64)
    near = np.zeros(T, dtype=bool)
    kd_sum = p1_draws = probe_levels = 0
    branch_tie = False
    for t in range(T):
        d, w = int(chunk.token_doc[t]), int(words[t])
        cdf = np.cumsum(np.concatenate(
            [dense_theta[d] * pstar[:, w], hyper.alpha * pstar[:, w]]
        ))
        x = u[t] * cdf[-1]
        j = min(int(np.searchsorted(cdf, x, side="right")), 2 * K - 1)
        topics[t] = j % K
        gap = np.abs(cdf - x) <= tol * cdf[-1]
        near[t] = gap.any()
        branch_tie |= bool(gap[K - 1])
        kd_sum += int(kd[d])
        if j < K:
            p1_draws += 1
            probe_levels += _levels(int(kd[d]), fanout)
        else:
            probe_levels += _levels(K, fanout)
    return topics, (kd_sum, p1_draws, probe_levels), near, branch_tie


class TestAgainstReference:
    @given(
        docs=st.lists(
            st.lists(st.integers(0, 7), min_size=0, max_size=12),
            min_size=1, max_size=6,
        ),
        num_topics=st.integers(2, 70),
        alpha=st.floats(0.01, 2.0),
        beta=st.floats(0.001, 1.0),
        heavy=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_draw(
        self, docs, num_topics, alpha, beta, heavy, seed
    ):
        """Every token's topic and every reported count equals a
        brute-force inverse-CDF draw with the same uniforms; a heavy
        document (~10⁶× another's θ mass) must not disturb its
        neighbours' draws."""
        from repro.corpus.corpus import Corpus

        corpus = Corpus.from_documents(docs, num_words=8)
        assume(corpus.num_tokens > 0)
        chunk = corpus.to_chunk()
        hyper = LDAHyperParams(num_topics=num_topics, alpha=alpha, beta=beta)
        gen = np.random.default_rng(seed)
        topics = gen.integers(0, num_topics, chunk.num_tokens).astype(np.uint16)
        theta = SparseTheta.from_assignments(chunk, topics, num_topics)
        if heavy:
            data = theta.data.copy()
            data[theta.indptr[0] : theta.indptr[1]] *= 10**6
            theta = SparseTheta(theta.indptr, theta.indices, data, num_topics)
        phi = gen.integers(0, 20, (num_topics, 8)).astype(np.int32)
        n_k = phi.sum(axis=1, dtype=np.int64) + gen.integers(0, 50, num_topics)
        config = KernelConfig(token_slab=int(gen.integers(1, 4 * num_topics)))

        out, stats = gibbs_sample_chunk(
            chunk, topics, theta, phi, n_k, hyper,
            np.random.default_rng(seed), config,
        )
        u = np.random.default_rng(seed).random(chunk.num_tokens)
        ref, counts, near, branch_tie = _reference_sample(
            chunk, theta, phi, n_k, hyper, u, config.tree_fanout
        )
        assert np.array_equal(out[~near], ref[~near])
        assume(not branch_tie)
        assert (stats.kd_sum, stats.p1_draws, stats.tree_probe_levels) == counts
