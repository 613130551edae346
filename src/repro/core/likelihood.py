"""Model quality metrics: joint log-likelihood and perplexity.

Fig 8 of the paper plots *log-likelihood per token* against wall time.
For collapsed Gibbs sampling the standard quantity is the joint
log-likelihood of words and topic assignments with θ/φ integrated out
(Griffiths & Steyvers 2004):

.. math::

    \\log p(w, z) =
      K\\big(\\log\\Gamma(V\\beta) - V\\log\\Gamma(\\beta)\\big)
      + \\sum_k \\Big[\\sum_v \\log\\Gamma(\\phi_{kv} + \\beta)
                     - \\log\\Gamma(n_k + V\\beta)\\Big]
      + D\\big(\\log\\Gamma(K\\alpha) - K\\log\\Gamma(\\alpha)\\big)
      + \\sum_d \\Big[\\sum_k \\log\\Gamma(\\theta_{dk} + \\alpha)
                     - \\log\\Gamma(L_d + K\\alpha)\\Big]

computed here fully vectorized from the CSR θ and dense φ counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import LDAHyperParams, SparseTheta

__all__ = ["log_likelihood", "log_likelihood_per_token", "perplexity", "word_log_likelihood"]


def word_log_likelihood(
    phi: np.ndarray, n_k: np.ndarray, hyper: LDAHyperParams, num_words: int
) -> float:
    """The p(w | z) term (depends only on φ; what multi-GPU replicas share)."""
    from scipy.special import gammaln

    K, V = hyper.num_topics, num_words
    beta = hyper.beta
    const = K * (gammaln(V * beta) - V * gammaln(beta))
    # Σ_v logΓ(φ_kv + β): exploit that most entries are 0 ⇒ logΓ(β).
    nz_mask = phi > 0
    nnz = int(nz_mask.sum())
    term = gammaln(phi[nz_mask] + beta).sum() + (phi.size - nnz) * gammaln(beta)
    term -= gammaln(n_k + V * beta).sum()
    return float(const + term)


def _doc_log_likelihood(
    theta: SparseTheta, doc_lengths: np.ndarray, hyper: LDAHyperParams
) -> float:
    """The p(z) term (depends only on θ)."""
    from scipy.special import gammaln

    K, alpha = hyper.num_topics, hyper.alpha
    D = theta.num_docs
    const = D * (gammaln(K * alpha) - K * gammaln(alpha))
    nnz = theta.nnz
    zeros = D * K - nnz
    term = gammaln(theta.data + alpha).sum() + zeros * gammaln(alpha)
    term -= gammaln(doc_lengths + K * alpha).sum()
    return float(const + term)


def log_likelihood(
    theta: SparseTheta,
    phi: np.ndarray,
    n_k: np.ndarray,
    doc_lengths: np.ndarray,
    hyper: LDAHyperParams,
) -> float:
    """Joint collapsed log-likelihood log p(w, z)."""
    V = phi.shape[1]
    return word_log_likelihood(phi, n_k, hyper, V) + _doc_log_likelihood(
        theta, doc_lengths, hyper
    )


def log_likelihood_per_token(
    theta: SparseTheta,
    phi: np.ndarray,
    n_k: np.ndarray,
    doc_lengths: np.ndarray,
    hyper: LDAHyperParams,
) -> float:
    """Fig 8's y-axis: joint log-likelihood divided by token count."""
    T = int(doc_lengths.sum())
    if T == 0:
        raise ValueError("empty corpus")
    return log_likelihood(theta, phi, n_k, doc_lengths, hyper) / T


def perplexity(
    theta: SparseTheta,
    phi: np.ndarray,
    n_k: np.ndarray,
    doc_lengths: np.ndarray,
    hyper: LDAHyperParams,
) -> float:
    """exp(-LL/token) — the conventional topic-model quality number."""
    return float(
        np.exp(-log_likelihood_per_token(theta, phi, n_k, doc_lengths, hyper))
    )
