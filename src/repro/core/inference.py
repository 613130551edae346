"""Fold-in inference: topic distributions for unseen documents.

The paper trains θ and φ; the standard downstream use of the model
(and the usual held-out evaluation) is *fold-in*: freeze φ from
training and Gibbs-sample only the new documents' topic assignments,

.. math::

    p(k) \\propto (\\theta^{new}_{d,k} + \\alpha)\\,
                  \\frac{\\phi_{k,v} + \\beta}{n_k + \\beta V},

then estimate each document's topic mixture and the held-out
likelihood. The sampler reuses the training kernel
(:func:`repro.core.kernels.gibbs_sample_chunk`) with φ frozen — the
same vectorized path, so inference inherits the kernels' tested
semantics.

:func:`infer_documents` folds in one corpus or a batch of them. A batch
is one combined word-first chunk, so each sweep is one sampling call and
one θ recount for all of it — the shared p\\*/p₂ staging the GPU kernel
amortizes across a chunk's documents. Each corpus still draws from its
own RNG stream, in its own chunk order, so its result is bit-identical
to folding it in alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.kernels import KernelConfig, gibbs_sample_chunk, recount_theta
from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import Corpus

__all__ = ["InferenceResult", "infer_documents", "held_out_log_likelihood"]


@dataclass(frozen=True)
class InferenceResult:
    """Per-document topic mixtures for a folded-in corpus.

    Attributes
    ----------
    theta: CSR counts of the inferred assignments (num_docs × K).
    doc_topic: row-normalized smoothed mixtures, ``float64[num_docs, K]``:
        ``(θ_dk + α) / (L_d + K·α)``.
    log_likelihood_per_token: held-out predictive score (see
        :func:`held_out_log_likelihood`).
    iterations: fold-in sweeps performed.
    """

    theta: SparseTheta
    doc_topic: np.ndarray
    log_likelihood_per_token: float
    iterations: int


def infer_documents(
    corpus: Corpus | Sequence[Corpus],
    phi: np.ndarray,
    hyper: LDAHyperParams,
    iterations: int = 20,
    burn_in: int | None = None,
    seed: int | Sequence[int] = 0,
    config: KernelConfig | None = None,
) -> InferenceResult | list[InferenceResult]:
    """Fold *corpus* into a trained model.

    Parameters
    ----------
    corpus: unseen documents (word ids must index the training φ's
        columns), or a sequence of such corpora folded in together.
    phi: trained ``int[K, V]`` topic–word counts (frozen).
    hyper: the training hyperparameters.
    iterations: Gibbs sweeps over the new documents.
    burn_in: sweeps before θ starts being averaged (default: half).
    seed: RNG seed, or one seed per corpus when *corpus* is a sequence.

    Returns
    -------
    :class:`InferenceResult` with the averaged, smoothed θ estimate, or
    for a sequence of corpora a list of them in the same order. Each
    corpus's result is bit-identical to folding it in alone: it draws
    from its own ``default_rng(seed)`` in its own chunk order, and every
    sampled quantity is per token or per document.
    """
    single = isinstance(corpus, Corpus)
    corpora = [corpus] if single else list(corpus)
    seeds = [seed] if single else list(seed)
    if len(seeds) != len(corpora):
        raise ValueError(
            f"need one seed per corpus: got {len(seeds)} seeds for "
            f"{len(corpora)} corpora"
        )
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    phi = np.asarray(phi)
    if phi.ndim != 2:
        raise ValueError(
            f"phi must be a 2-D (num_topics, vocab) array, got shape "
            f"{phi.shape}"
        )
    K = hyper.num_topics
    if phi.shape[0] != K:
        raise ValueError(f"phi has {phi.shape[0]} topics, hyper says {K}")
    V = phi.shape[1]
    for part in corpora:
        if part.num_words > V:
            raise ValueError(
                f"corpus vocabulary ({part.num_words}) exceeds phi columns "
                f"({V}); map unseen words before inference"
            )
        _check_word_ids(part, V)
    config = config or KernelConfig(compressed=False)
    burn_in = iterations // 2 if burn_in is None else burn_in
    if not 0 <= burn_in < iterations:
        raise ValueError("burn_in must lie in [0, iterations)")

    # Frozen statistics.
    phi64 = phi.astype(np.int64)
    n_k = phi64.sum(axis=1)

    # One word-first chunk over every corpus, padded to φ's width. The
    # word sort is stable, so one corpus's tokens, taken in combined
    # order, are in that corpus's own chunk order: ``own`` lists the
    # combined positions corpus by corpus, and scattering each corpus's
    # draws through it gives every token the draw it gets alone.
    chunk = Corpus.concatenate(corpora, V).to_chunk()
    sizes = [part.num_tokens for part in corpora]
    owner = np.repeat(
        np.arange(len(corpora)), [part.num_docs for part in corpora]
    )
    own = np.argsort(owner[chunk.token_doc], kind="stable")
    rngs = [np.random.default_rng(s) for s in seeds]

    def scattered(draws: list[np.ndarray]) -> np.ndarray:
        out = np.empty(chunk.num_tokens, dtype=draws[0].dtype)
        out[own] = np.concatenate(draws)
        return out

    topics = scattered(
        [rng.integers(0, K, size=n) for rng, n in zip(rngs, sizes)]
    ).astype(np.int32)
    theta = recount_theta(chunk, topics, K, compressed=False)

    D = chunk.num_docs
    theta_accum = np.zeros((D, K), dtype=np.float64)
    samples = 0
    for it in range(iterations):
        u = scattered([rng.random(n) for rng, n in zip(rngs, sizes)])
        topics, _ = gibbs_sample_chunk(
            chunk, topics, theta, phi64, n_k, hyper, u, config
        )
        theta = recount_theta(chunk, topics, K, compressed=False)
        if it >= burn_in:
            theta_accum += theta.to_dense()
            samples += 1

    mean_theta = theta_accum / max(samples, 1)
    lengths = chunk.doc_lengths.astype(np.float64)
    doc_topic = (mean_theta + hyper.alpha) / (
        lengths[:, None] + K * hyper.alpha
    )

    # Each corpus owns a contiguous run of rows; its likelihood sums
    # over its own tokens only, in its own order.
    results = []
    d_lo = 0
    for part in corpora:
        d_hi = d_lo + part.num_docs
        lo, hi = theta.indptr[d_lo], theta.indptr[d_hi]
        rows = doc_topic[d_lo:d_hi]
        results.append(InferenceResult(
            theta=SparseTheta(
                theta.indptr[d_lo : d_hi + 1] - lo,
                theta.indices[lo:hi], theta.data[lo:hi], K,
            ),
            doc_topic=rows,
            log_likelihood_per_token=held_out_log_likelihood(
                part, rows, phi64, n_k, hyper
            ),
            iterations=iterations,
        ))
        d_lo = d_hi
    return results[0] if single else results


def _check_word_ids(corpus: Corpus, vocab: int) -> None:
    """Reject word ids that would index past φ's columns.

    ``corpus.num_words`` is caller-declared, so a corpus built with an
    understated vocabulary can still carry out-of-range ids; without
    this check they surface as an opaque ``IndexError`` deep inside the
    sampling kernel (or, worse, as silently wrong einsum gathers).
    """
    if corpus.num_tokens == 0:
        return
    widest = int(corpus.token_word.max())
    if widest >= vocab:
        raise ValueError(
            f"corpus contains word id {widest} but phi has only {vocab} "
            f"columns; map unseen words before inference"
        )


def held_out_log_likelihood(
    corpus: Corpus,
    doc_topic: np.ndarray,
    phi: np.ndarray,
    n_k: np.ndarray,
    hyper: LDAHyperParams,
) -> float:
    """Predictive log-likelihood per token of *corpus* under the model.

    Uses the standard fold-in estimate
    ``Σ_i log Σ_k p(k|d_i) p(w_i|k)`` with the smoothed word
    distribution ``(φ_kv + β)/(n_k + βV)``.
    """
    if corpus.num_tokens == 0:
        raise ValueError("empty corpus")
    phi = np.asarray(phi)
    if phi.ndim != 2:
        raise ValueError(
            f"phi must be a 2-D (num_topics, vocab) array, got shape "
            f"{phi.shape}"
        )
    _check_word_ids(corpus, phi.shape[1])
    beta, V = hyper.beta, phi.shape[1]
    # The smoothed word distribution over the request's own words only.
    present, words = np.unique(corpus.token_word, return_inverse=True)
    word_dist = (phi[:, present] + beta) / (n_k + beta * V)[:, None]
    docs = corpus.token_doc.astype(np.int64)
    # p(w_i) = θ row · φ column, batched in slabs to bound memory.
    total = 0.0
    step = 1 << 18
    for lo in range(0, corpus.num_tokens, step):
        d = docs[lo : lo + step]
        w = words[lo : lo + step]
        p = np.einsum("ik,ki->i", doc_topic[d], word_dist[:, w])
        total += float(np.log(np.maximum(p, 1e-300)).sum())
    return total / corpus.num_tokens
