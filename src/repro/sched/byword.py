"""Partition-by-word — the workload policy the paper rejects (§4).

§4 argues: partitioning by word would replicate the document–topic
matrix θ (D × K) across GPUs and require synchronizing *it* every
iteration, and "consider D is often several orders of magnitude greater
than V, synchronize θ_{D×K} is more expensive than φ_{V×K}". The main
trainer implements the chosen policy; this module implements the
rejected one, so the argument is measured end-to-end rather than
asserted:

- words (not documents) are split into G token-balanced ranges;
- every GPU holds the FULL θ (all documents) plus only its own words'
  φ columns;
- each iteration samples each GPU's word range against the broadcast θ,
  then tree-reduces and broadcasts the θ replicas (the expensive sync);
  φ needs no synchronization at all (each GPU owns its columns).

Statistically this is the same delayed-update CGS — both policies
converge; only the communication pattern differs. See
``tests/test_byword.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - avoid a core<->sched import cycle
    from repro.core.culda import TrainConfig

from repro.core.kernels import (
    accumulate_phi,
    gibbs_sample_chunk,
    recount_theta,
    sampling_cost,
    sampling_launch_plan,
    SamplingStats,
    update_theta_cost,
)
from repro.core.likelihood import log_likelihood_per_token
from repro.core.model import SparseTheta
from repro.corpus.corpus import Corpus, TokenChunk
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine

__all__ = ["partition_words_by_tokens", "ByWordResult", "train_by_word"]


def partition_words_by_tokens(
    corpus: Corpus, num_parts: int
) -> list[tuple[int, int]]:
    """Split the vocabulary into contiguous word ranges of ~equal token
    mass (the by-word analogue of the by-document partitioner)."""
    V = corpus.num_words
    if not 1 <= num_parts <= V:
        raise ValueError(f"num_parts must be in [1, V={V}]")
    freq = corpus.word_frequencies()
    csum = np.cumsum(freq)
    T = int(csum[-1]) if csum.size else 0
    targets = np.arange(1, num_parts) * (T / num_parts)
    cuts = (np.searchsorted(csum, targets, side="left") + 1).astype(np.int64)
    prev = 0
    for i in range(cuts.size):
        lo_bound = prev + 1
        hi_bound = V - (num_parts - 1 - i)
        cuts[i] = min(max(cuts[i], lo_bound), hi_bound)
        prev = cuts[i]
    bounds = np.concatenate(([0], cuts, [V]))
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(num_parts)]


def _word_range_chunk(corpus: Corpus, w_lo: int, w_hi: int) -> TokenChunk:
    """A TokenChunk of all tokens whose word falls in ``[w_lo, w_hi)``,
    spanning ALL documents (local doc ids = global doc ids)."""
    mask = (corpus.token_word >= w_lo) & (corpus.token_word < w_hi)
    words = corpus.token_word[mask]
    docs = corpus.token_doc[mask].astype(np.int64)
    order = np.argsort(words, kind="stable")
    sorted_words = words[order]
    token_doc = docs[order].astype(np.int32)
    word_counts = np.bincount(sorted_words, minlength=corpus.num_words)
    word_indptr = np.zeros(corpus.num_words + 1, dtype=np.int64)
    np.cumsum(word_counts, out=word_indptr[1:])
    doc_order = np.argsort(token_doc, kind="stable").astype(np.int64)
    doc_counts = np.bincount(token_doc, minlength=corpus.num_docs)
    doc_map_indptr = np.zeros(corpus.num_docs + 1, dtype=np.int64)
    np.cumsum(doc_counts, out=doc_map_indptr[1:])
    source = np.nonzero(mask)[0][order]
    return TokenChunk(
        token_doc=token_doc,
        word_indptr=word_indptr,
        doc_map_indptr=doc_map_indptr,
        doc_map_indices=doc_order,
        source_pos=source,
        doc_offset=0,
        num_words=corpus.num_words,
    )


@dataclass
class ByWordResult:
    """Outcome of a partition-by-word training run."""

    total_sim_seconds: float
    sync_bytes_per_iteration: float
    final_log_likelihood: float
    phi: np.ndarray
    iterations: int

    @property
    def avg_tokens_per_sec(self) -> float:
        return 0.0 if self.total_sim_seconds == 0 else (
            self._tokens * self.iterations / self.total_sim_seconds
        )

    _tokens: int = 0


def train_by_word(
    corpus: Corpus,
    machine: Machine,
    config: "TrainConfig",
) -> ByWordResult:
    """Train with the rejected partition-by-word policy (resident data).

    Per iteration, per GPU *g*: sample its word range against the full
    (previous-iteration) θ; recount its φ columns (no sync needed);
    recount its θ *contribution*. Then tree-reduce + broadcast the θ
    contributions — a dense D × K exchange, the policy's cost.
    """
    hyper = config.hyper()
    kcfg = config.kernel_config()
    G = len(machine.gpus)
    K, V, D = hyper.num_topics, corpus.num_words, corpus.num_docs

    ranges = partition_words_by_tokens(corpus, G)
    chunks = [_word_range_chunk(corpus, lo, hi) for lo, hi in ranges]
    master = np.random.default_rng(config.seed)
    rngs = master.spawn(G)
    topics = [
        rngs[g].integers(0, K, chunks[g].num_tokens).astype(np.int32)
        for g in range(G)
    ]

    # Full φ assembled once (each GPU owns its columns; union = full).
    phi = np.zeros((K, V), dtype=np.int64)
    theta_dense = np.zeros((D, K), dtype=np.int64)
    for g in range(G):
        phi += accumulate_phi(chunks[g], topics[g], K)
        contrib = recount_theta(chunks[g], topics[g], K, compressed=False)
        theta_dense += contrib.to_dense()
    n_k = phi.sum(axis=1)

    # Device buffers: full θ replica + θ scratch per GPU (the D×K cost),
    # plus each GPU's φ columns.
    theta_bytes_each = D * K * 4
    bufs = []
    for g in range(G):
        dev = machine.gpus[g]
        bufs.append(
            dict(
                theta=DeviceArray(dev, (D, K), np.int32, label="theta_full"),
                scratch=DeviceArray(dev, (D, K), np.int32, label="theta_scratch"),
            )
        )
    streams = [machine.gpus[g].create_stream("byword") for g in range(G)]

    def theta_csr() -> SparseTheta:
        rows, cols = np.nonzero(theta_dense)
        indptr = np.zeros(D + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return SparseTheta(indptr, cols.astype(np.int32),
                           theta_dense[rows, cols].astype(np.int32), K)

    machine.synchronize()
    machine.reset_clock()
    sync_bytes = 0.0

    contribs = [None] * G
    for it in range(config.iterations):
        theta_sparse = theta_csr()
        for g in range(G):
            ch = chunks[g]
            if ch.num_tokens == 0:
                contribs[g] = np.zeros((D, K), dtype=np.int64)
                continue
            row_len = np.diff(theta_sparse.indptr)
            kd_sum = int(row_len[ch.token_doc].sum())
            nb, ns = sampling_launch_plan(ch.word_indptr)
            stats = SamplingStats(ch.num_tokens, kd_sum, 0, ns, nb)
            s_cost = sampling_cost(stats, hyper, V, kcfg)

            def body(g: int = g, ch: TokenChunk = ch) -> None:
                new_topics, _ = gibbs_sample_chunk(
                    ch, topics[g], theta_sparse, phi, n_k, hyper,
                    rngs[g].random(ch.num_tokens), kcfg,
                )
                topics[g] = new_topics

            KernelLaunch(body, s_cost, f"sampling:w{g}", "sampling").launch(
                streams[g]
            )

            def upd(g: int = g, ch: TokenChunk = ch) -> None:
                contribs[g] = recount_theta(
                    ch, topics[g], K, compressed=False
                ).to_dense()

            KernelLaunch(
                upd,
                update_theta_cost(ch.num_tokens, D, int(kd_sum / max(1, 1)),
                                  hyper, kcfg),
                f"update_theta:w{g}", "update_theta",
            ).launch(streams[g])

        # θ synchronization: tree-reduce the contributions, broadcast.
        # Charged as p2p transfers of the dense D×K replica (the §4 cost).
        stride = 1
        while stride < G:
            for i in range(0, G - stride, 2 * stride):
                sender = i + stride
                ready = streams[sender].record()
                streams[i].wait_event(ready)
                machine.memcpy_p2p(
                    bufs[i]["scratch"], bufs[sender]["theta"],
                    stream=streams[i], label="theta_reduce",
                )
                sync_bytes += theta_bytes_each
            stride *= 2
        have, step = [0], 1
        while step < G:
            for h in list(have):
                peer = h + step
                if peer < G:
                    ready = streams[h].record()
                    streams[peer].wait_event(ready)
                    machine.memcpy_p2p(
                        bufs[peer]["theta"], bufs[h]["theta"],
                        stream=streams[peer], label="theta_broadcast",
                    )
                    sync_bytes += theta_bytes_each
                    have.append(peer)
            step *= 2

        # Functional θ/φ refresh (the union of contributions).
        theta_dense = np.sum(contribs, axis=0) if G > 1 else contribs[0]
        phi = np.zeros((K, V), dtype=np.int64)
        for g in range(G):
            phi += accumulate_phi(chunks[g], topics[g], K)
        n_k = phi.sum(axis=1)
        machine.synchronize()

    total = machine.synchronize()
    ll = log_likelihood_per_token(
        theta_csr(), phi, n_k, corpus.doc_lengths, hyper
    )
    for b in bufs:
        b["theta"].free()
        b["scratch"].free()
    result = ByWordResult(
        total_sim_seconds=total,
        sync_bytes_per_iteration=sync_bytes / max(1, config.iterations),
        final_log_likelihood=float(ll),
        phi=phi.astype(np.int32),
        iterations=config.iterations,
    )
    result._tokens = corpus.num_tokens
    return result
