"""Tests for the collapsed joint log-likelihood (Fig 8's metric)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import gammaln

from repro.core.likelihood import (
    log_likelihood,
    log_likelihood_per_token,
    perplexity,
    word_log_likelihood,
)
from repro.core.model import LDAHyperParams, LDAState, SparseTheta


def _brute_force_ll(theta_dense, phi, hyper):
    """Direct dense evaluation of the Griffiths–Steyvers formula."""
    K, V = phi.shape
    D = theta_dense.shape[0]
    alpha, beta = hyper.alpha, hyper.beta
    n_k = phi.sum(axis=1)
    lengths = theta_dense.sum(axis=1)
    ll = K * (gammaln(V * beta) - V * gammaln(beta))
    ll += gammaln(phi + beta).sum() - gammaln(n_k + V * beta).sum()
    ll += D * (gammaln(K * alpha) - K * gammaln(alpha))
    ll += gammaln(theta_dense + alpha).sum() - gammaln(lengths + K * alpha).sum()
    return float(ll)


class TestClosedForm:
    def test_matches_brute_force(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        sparse = log_likelihood(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper8
        )
        brute = _brute_force_ll(state.theta.to_dense(), state.phi, hyper8)
        assert sparse == pytest.approx(brute, rel=1e-10)

    def test_word_term_only_depends_on_phi(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        a = LDAState.initialize(chunk, hyper8, seed=0)
        b = LDAState.initialize(chunk, hyper8, seed=1)
        assert word_log_likelihood(
            a.phi, a.n_k, hyper8, small_corpus.num_words
        ) != pytest.approx(
            word_log_likelihood(b.phi, b.n_k, hyper8, small_corpus.num_words)
        )

    def test_per_token_scaling(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        total = log_likelihood(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper8
        )
        per = log_likelihood_per_token(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper8
        )
        assert per == pytest.approx(total / small_corpus.num_tokens)

    def test_perplexity_consistent(self, small_corpus, hyper8):
        chunk = small_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper8, seed=0)
        per = log_likelihood_per_token(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper8
        )
        assert perplexity(
            state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper8
        ) == pytest.approx(np.exp(-per))

    def test_empty_corpus_rejected(self, hyper8):
        theta = SparseTheta(np.array([0]), np.array([], dtype=np.int32),
                            np.array([], dtype=np.int32), 8)
        with pytest.raises(ValueError):
            log_likelihood_per_token(
                theta, np.zeros((8, 4), dtype=np.int64),
                np.zeros(8, dtype=np.int64), np.array([], dtype=np.int64),
                hyper8,
            )


class TestBehaviour:
    def test_concentrated_phi_beats_uniform(self, hyper8):
        """A φ where each topic owns distinct words should score higher
        than a uniform φ with the same totals."""
        K, V = 8, 16
        total = 800
        uniform = np.full((K, V), total // (K * V), dtype=np.int64)
        concentrated = np.zeros((K, V), dtype=np.int64)
        for k in range(K):
            concentrated[k, k * 2 : k * 2 + 2] = total // (K * 2)
        nk_u = uniform.sum(axis=1)
        nk_c = concentrated.sum(axis=1)
        assert word_log_likelihood(concentrated, nk_c, hyper8, V) > \
            word_log_likelihood(uniform, nk_u, hyper8, V)

    def test_training_increases_likelihood(self, medium_corpus):
        """The end-to-end Fig 8 behaviour on a scaled twin."""
        from repro.core.kernels import (
            accumulate_phi,
            gibbs_sample_chunk,
            recount_theta,
        )

        hyper = LDAHyperParams(num_topics=16)
        chunk = medium_corpus.to_chunk()
        state = LDAState.initialize(chunk, hyper, seed=0)
        rng = np.random.default_rng(1)
        lls = []
        for _ in range(10):
            new_topics, _ = gibbs_sample_chunk(
                chunk, state.topics, state.theta, state.phi, state.n_k,
                hyper, rng.random(chunk.num_tokens),
            )
            state.topics = new_topics
            state.theta = recount_theta(chunk, new_topics, 16)
            state.phi = accumulate_phi(chunk, new_topics, 16)
            state.n_k = state.phi.sum(axis=1, dtype=np.int64)
            lls.append(
                log_likelihood_per_token(
                    state.theta, state.phi, state.n_k, chunk.doc_lengths, hyper
                )
            )
        # Strictly improving on average; final well above initial.
        assert lls[-1] > lls[0]
        assert np.mean(np.diff(lls)) > 0
