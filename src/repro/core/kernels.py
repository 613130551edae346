"""GPU kernels: sampling, update-θ, update-φ (paper §6) — functional
bodies plus their roofline cost accounting.

Each kernel has two halves:

- a **functional body**: fully vectorized NumPy that computes exactly
  what the CUDA kernel computes (new topic assignments; recounted θ;
  the chunk's partial φ), and
- a **cost function**: the kernel's global-memory traffic, flops, atomic
  count and launch geometry, derived from the same per-step byte
  formulas as the paper's Table 1 and from the launch plan of §6.1.2
  (one warp = one sampler, 32 samplers per block, blocks own words,
  heavy words split across blocks).

The :class:`KernelConfig` flags turn the paper's individual
optimizations on and off, which is what the ablation benchmarks sweep:

``sparse_sampler``      Eq 6 S/Q decomposition vs dense O(K) sampling.
``share_p2_tree``       per-block shared p₂ tree (word-first sort) vs
                        per-sampler private p₂ data.
``reuse_pstar``         stage p*(k) once per word in shared memory vs
                        recomputing φ-column reads per token.
``compressed``          16-bit topic indices / φ entries vs 32-bit.

Sampling semantics
------------------
As in the paper, the sampling kernel reads the *iteration-start* model
(θ replica, broadcast φ) and writes new topics; the update kernels then
rebuild θ and the chunk-partial φ. This delayed-update CGS is the
standard GPU formulation (the paper's separate sampling/update kernels);
the sequential exact-CGS oracle lives in
:mod:`repro.baselines.gibbs_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.corpus import TokenChunk
from repro.core.model import LDAHyperParams, SparseTheta
from repro.gpusim.costmodel import KernelCost
from repro.telemetry.context import emit_counter

__all__ = [
    "KernelConfig",
    "SamplingStats",
    "gibbs_sample_chunk",
    "tree_search_levels",
    "recount_theta",
    "accumulate_phi",
    "sampling_launch_plan",
    "sampling_cost",
    "update_theta_cost",
    "update_phi_cost",
    "phi_reduce_cost",
]

#: Threads per warp — one warp is one sampler (§6.1.1).
WARP_SIZE = 32
#: Samplers (warps) per thread block — "the allowed maximal value" (§6.1.2).
SAMPLERS_PER_BLOCK = 32
#: Tokens a sampler processes per block assignment; beyond this a heavy
#: word spills into additional blocks (load-balance rule of §6.1.2).
TOKENS_PER_SAMPLER = 16
#: Token capacity of one block.
BLOCK_TOKEN_CAPACITY = SAMPLERS_PER_BLOCK * TOKENS_PER_SAMPLER
#: DRAM transaction granularity: a warp's θ-row read rounds up to this.
CACHELINE_BYTES = 128
#: Fixed per-token global traffic that is independent of K_d: RNG state,
#: p₂ leaf transactions (the Fig 5 "two elements of p[8]"), tree-path
#: spills, and transaction padding. Calibrated against Table 4 (see
#: EXPERIMENTS.md).
TOKEN_OVERHEAD_BYTES = 240.0


@dataclass(frozen=True)
class KernelConfig:
    """Optimization switches for the sampling/update kernels."""

    sparse_sampler: bool = True
    share_p2_tree: bool = True
    reuse_pstar: bool = True
    compressed: bool = True
    tree_fanout: int = 32
    #: Max (pair × K) p₁-table entries held at once by the functional
    #: sampler; bounds host memory, no effect on results.
    token_slab: int = 1 << 22

    @property
    def index_bytes(self) -> int:
        """Bytes of one topic index (§6.1.3 precision compression)."""
        return 2 if self.compressed else 4

    @property
    def phi_bytes(self) -> int:
        """Bytes of one φ entry."""
        return 2 if self.compressed else 4


@dataclass(frozen=True)
class SamplingStats:
    """Per-launch statistics the cost model and Fig 7 analysis need."""

    num_tokens: int
    kd_sum: int            # Σ_tokens K_d  (θ entries touched)
    p1_draws: int          # tokens resolved in the sparse branch
    num_word_segments: int # (block, word) assignments after splitting
    num_blocks: int
    #: Σ_tokens index-tree search levels (p₁ trees over K_d leaves for
    #: sparse draws, the shared p₂ tree over K leaves for dense draws).
    tree_probe_levels: int = 0

    @property
    def mean_kd(self) -> float:
        return self.kd_sum / self.num_tokens if self.num_tokens else 0.0

    @property
    def p1_fraction(self) -> float:
        return self.p1_draws / self.num_tokens if self.num_tokens else 0.0

    @property
    def mean_probe_levels(self) -> float:
        """Mean index-tree search depth per token (Fig 5 probe cost)."""
        return (
            self.tree_probe_levels / self.num_tokens if self.num_tokens else 0.0
        )


# ----------------------------------------------------------------------
# Launch plan (§6.1.2)
# ----------------------------------------------------------------------

def tree_search_levels(num_leaves: np.ndarray | int, fanout: int) -> np.ndarray:
    """Search levels of an R-way index tree over ``num_leaves`` leaves.

    Equals ``IndexTree(w, fanout).depth - 1`` — i.e. ``ceil(log_R n)``
    for n > 1, zero for degenerate single-leaf trees — computed by
    integer repeated division so float log round-off near exact powers
    of R can never misreport a level.
    """
    n = np.atleast_1d(np.asarray(num_leaves, dtype=np.int64))
    levels = np.zeros(n.shape, dtype=np.int64)
    while (live := n > 1).any():
        levels += live
        n = -(-n // fanout)   # ceil division; leaves 0 and 1 fixed
    return levels


def sampling_launch_plan(word_indptr: np.ndarray) -> tuple[int, int]:
    """Blocks and word segments for a chunk.

    Each block samples tokens of a single word; a word with more than
    ``BLOCK_TOKEN_CAPACITY`` tokens is split across several blocks
    (assigned the smallest block ids so the GPU scheduler issues them
    first — the paper's long-tail avoidance). Returns
    ``(num_blocks, num_word_segments)``; with one word per block they
    coincide.
    """
    counts = np.diff(word_indptr)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 1, 1
    segments = int(np.ceil(counts / BLOCK_TOKEN_CAPACITY).sum())
    return segments, segments


# ----------------------------------------------------------------------
# Functional kernel bodies
# ----------------------------------------------------------------------

def gibbs_sample_chunk(
    chunk: TokenChunk,
    topics: np.ndarray,
    theta: SparseTheta,
    phi: np.ndarray,
    n_k: np.ndarray,
    hyper: LDAHyperParams,
    u: np.ndarray,
    config: KernelConfig | None = None,
) -> tuple[np.ndarray, SamplingStats]:
    """Sample a new topic for every token of *chunk* (Alg 2, vectorized).

    Reads the iteration-start model ``(theta, phi, n_k)`` and one uniform
    ``u[i]`` in [0, 1) per token, ``float64[T]`` in chunk order, and
    returns ``(new_topics, stats)``; does **not** mutate its inputs and
    draws no randomness of its own, so the caller owns the RNG stream
    (training passes ``rng.random(chunk.num_tokens)``; batched fold-in
    scatters each request's own draws into the combined chunk). The
    returned topics use the same dtype as the input ``topics``.

    The vectorization reproduces the S/Q control flow exactly:

    1. p*(k, w), Q = α·Σ_k p* and the p₂ prefix sums for the chunk's
       present words only (the shared sub-expression, staged per
       word-block in the real kernel);
    2. per (document, word) pair — a run of equal (word, doc) in the
       word-sorted chunk — one p₁ table: the prefix sums of the dense θ
       row times the word's p* row in topic order, whose last entry is
       S (the "compute S & build p₁ tree" step, shared by every token of
       the pair);
    3. the token's uniform scaled to its mass S + Q;
    4. sparse-branch tokens take the first entry of their pair's p₁
       table above the draw (zero θ entries add exactly, so only the
       document's topics can be hit); dense-branch tokens search their
       word's p₂ prefix sums (the shared p₂ tree).
    """
    config = config or KernelConfig()
    K, V = hyper.num_topics, chunk.num_words
    T = chunk.num_tokens
    if u.shape != (T,):
        raise ValueError(
            f"need one uniform per token: u has shape {u.shape}, T={T}"
        )
    if T == 0:
        return topics.copy(), SamplingStats(0, 0, 0, 1, 1)

    # --- p*(w, k), Q and p₂ prefix sums, word-major over present words
    present = chunk.words_present()
    pstar = (phi.T[present].astype(np.float64) + hyper.beta) / (
        n_k.astype(np.float64) + hyper.beta * V
    )
    q_cum = hyper.alpha * np.cumsum(pstar, axis=1)
    q_word = q_cum[:, -1]  # Q as the last p₂ prefix sum: both sum alike

    # --- (document, word) pairs: runs of equal (word, doc) in token order.
    # Same-word tokens keep document order, so each pair is one run; a
    # pair split into several runs would only cost a repeated table.
    docs = chunk.token_doc
    word_of = np.repeat(
        np.arange(present.size), np.diff(chunk.word_indptr)[present]
    )
    new_pair = np.empty(T, dtype=bool)
    new_pair[0] = True
    np.not_equal(docs[1:], docs[:-1], out=new_pair[1:])
    new_pair[chunk.word_indptr[present]] = True
    pair_of = np.cumsum(new_pair) - 1
    pair_first = np.append(np.flatnonzero(new_pair), T)
    pair_doc = docs[pair_first[:-1]]
    pair_word = word_of[pair_first[:-1]]

    new_topics = np.empty(T, dtype=topics.dtype)
    sparse = np.empty(T, dtype=bool)

    # Slab over pairs so at most token_slab (pair × K) entries are live.
    W = present.size
    step = max(1, config.token_slab // K)
    for p_lo in range(0, pair_doc.size, step):
        p_hi = min(p_lo + step, pair_doc.size)
        lo, hi = pair_first[p_lo], pair_first[p_hi]
        # One search table: the p₂ prefix sums, then this slab's p₁ tables.
        table = np.empty((W + p_hi - p_lo, K))
        table[:W] = q_cum
        p1_cum = table[W:]
        p1_cum[...] = pstar[pair_word[p_lo:p_hi]]
        rows, inv = np.unique(pair_doc[p_lo:p_hi], return_inverse=True)
        p1_cum *= theta.dense_rows(rows)[inv]
        np.cumsum(p1_cum, axis=1, out=p1_cum)
        S = p1_cum[:, -1]
        mass = S + q_word[pair_word[p_lo:p_hi]]

        # Masses and the branch draw.
        local = pair_of[lo:hi] - p_lo
        target = u[lo:hi] * mass[local]
        s_tok = S[local]
        is_p1 = target < s_tok
        sparse[lo:hi] = is_p1
        hit = _first_above(
            table,
            np.where(is_p1, W + local, word_of[lo:hi]),
            np.where(is_p1, target, target - s_tok),
        )
        # Round-off guard: if no p₂ entry exceeded, take the top.
        new_topics[lo:hi] = np.minimum(hit, K - 1)

    # p₁ trees span each token's K_d leaves; p₂ trees span K.
    row_len = theta.row_lengths()
    levels = tree_search_levels(np.append(row_len, K), config.tree_fanout)
    probes = levels[np.where(sparse, docs, row_len.size)]
    num_blocks, num_segments = sampling_launch_plan(chunk.word_indptr)
    stats = SamplingStats(
        num_tokens=T,
        kd_sum=int(row_len[docs].sum()),
        p1_draws=int(sparse.sum()),
        num_word_segments=num_segments,
        num_blocks=num_blocks,
        tree_probe_levels=int(probes.sum()),
    )
    emit_counter(
        "sampler_tokens_total", T, help="tokens drawn by the sampling kernel"
    )
    emit_counter(
        "sampler_p1_draws_total", stats.p1_draws,
        help="tokens resolved in the sparse p1 branch (Eq 6)",
    )
    emit_counter(
        "sampler_p2_draws_total", T - stats.p1_draws,
        help="tokens resolved in the dense p2 branch",
    )
    emit_counter(
        "sampler_theta_entries_total", stats.kd_sum,
        help="theta CSR entries gathered (sum of K_d over tokens)",
    )
    emit_counter(
        "sampler_tree_probe_levels_total", stats.tree_probe_levels,
        help="index-tree search levels descended across all draws",
    )
    return new_topics, stats


def _first_above(
    table: np.ndarray, rows: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Index of the first entry of ``table[rows[i]]`` above ``x[i]``, or
    the row length when none is: a branch-free binary search over
    non-decreasing rows, one gathered probe per row and level."""
    K = table.shape[1]
    flat = table.ravel()
    start = rows * K
    pos = start.copy()
    # The answer lies in [pos, pos + n - 1]; each probe halves n.
    n = K + 1
    while n > 1:
        half = n // 2
        np.add(pos, half, out=pos, where=flat[pos + (half - 1)] <= x)
        n -= half
    return pos - start


def recount_theta(
    chunk: TokenChunk,
    topics: np.ndarray,
    num_topics: int,
    compressed: bool = True,
) -> SparseTheta:
    """Functional body of the θ-update kernel (§6.2).

    Dense-scatter per document then CSR compaction — realized as one
    vectorized recount (bit-identical to the scatter+prefix-sum result).
    """
    return SparseTheta.from_assignments(chunk, topics, num_topics, compressed)


def accumulate_phi(
    chunk: TokenChunk,
    topics: np.ndarray,
    num_topics: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Functional body of the φ-update kernel (§6.2): the chunk's
    *partial* topic–word counts (atomic adds over word-sorted tokens).

    Overwrites *out* (every entry, zeros included) if given; else
    allocates. One ``bincount`` over flat ``topic·V + word`` keys.
    """
    K, V = num_topics, chunk.num_words
    if out is None:
        out = np.empty((K, V), dtype=np.int32)
    elif out.shape != (K, V):
        raise ValueError("out has wrong shape")
    keys = topics.astype(np.int64) * V + chunk.token_word_expanded()
    out[...] = np.bincount(keys, minlength=K * V).reshape(K, V)
    return out


# ----------------------------------------------------------------------
# Cost accounting
# ----------------------------------------------------------------------

def sampling_cost(
    stats: SamplingStats,
    hyper: LDAHyperParams,
    num_words: int,
    config: KernelConfig,
) -> KernelCost:
    """Global traffic / flops of one sampling launch.

    Derived from the paper's Table 1 per-step formulas, with the §6
    optimizations expressed as traffic changes:

    - *reuse_pstar* + *share_p2_tree*: the φ column and n_k are staged
      once per (block, word) segment; the p₂ tree is built in shared
      memory from them — so their per-token cost is amortized by the
      segment's token count.
    - without sharing, every sampler (warp) stages privately: the
      staging term multiplies by ``SAMPLERS_PER_BLOCK``.
    - without reuse, each token additionally re-reads the φ entries for
      its θ-row topics (K_d values) from global/L1.
    - a dense (non-sparse) sampler reads the full K-length conditional
      per token instead of the K_d-length sparse part.
    """
    K = hyper.num_topics
    T, kd = stats.num_tokens, stats.kd_sum
    idx_b, phi_b = config.index_bytes, config.phi_bytes
    cnt_b = 4           # θ counts are int32
    nk_b = 4            # n_k staged as 32-bit on device

    read = 0.0
    written = 0.0
    flops = 0.0

    # p* staging: φ column + n_k per (block, word) segment.
    staging_factor = 1 if config.share_p2_tree else SAMPLERS_PER_BLOCK
    read += stats.num_word_segments * K * (phi_b + nk_b) * staging_factor
    flops += stats.num_word_segments * 3.0 * K   # p* div+add, ×α, tree sums

    if config.sparse_sampler:
        # Compute S + build p₁ tree: the warp reads the θ row (idx +
        # count) in CACHELINE-granular transactions.
        mean_kd = kd / T if T else 0.0
        row_bytes = np.ceil(mean_kd * (idx_b + cnt_b) / CACHELINE_BYTES)
        read += T * row_bytes * CACHELINE_BYTES
        flops += 2.0 * kd            # multiply-accumulate per entry
        flops += 2.0 * kd            # p₁ tree construction
        if not config.reuse_pstar:
            read += kd * phi_b       # re-read φ for the row's topics
            flops += 2.0 * kd
        # Tree search: log_R levels over shared data; negligible global.
        flops += T * 2.0 * config.tree_fanout
    else:
        # Dense O(K) conditional per token.
        read += T * K * (phi_b + cnt_b)
        flops += T * 4.0 * K

    # Per-token fixed traffic: doc id, old topic read, new topic write,
    # plus the K_d-independent overhead (RNG, p₂ leaves, padding).
    read += T * (4 + idx_b + TOKEN_OVERHEAD_BYTES)
    written += T * idx_b
    flops += T * 16.0                # RNG + branch arithmetic

    shared = K * 4                       # staged p* column (float32)
    shared += (K // config.tree_fanout + 2) * 4   # shared p₂ tree internals
    shared = min(shared, 96 * 1024)      # the kernel tiles K if larger

    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=flops,
        num_blocks=stats.num_blocks,
        shared_mem_per_block=int(shared),
    )


def update_theta_cost(
    num_tokens: int,
    num_docs: int,
    theta_nnz: int,
    hyper: LDAHyperParams,
    config: KernelConfig,
) -> KernelCost:
    """Traffic of the θ-update kernel (§6.2).

    The paper's two-step algorithm: (1) per document, scatter the
    document's tokens (found via the doc–word map) into a dense K-length
    row in global memory with atomic adds; (2) compact dense → CSR with
    a prefix sum. Step 1 costs a zeroing write + the per-token map/topic
    reads and atomics; step 2 re-reads the dense row and writes the CSR.
    """
    T = num_tokens
    D = num_docs
    K = hyper.num_topics
    idx_b = config.index_bytes
    dense = float(D) * K * 4          # the per-document dense rows
    # Topic reads go through the doc–word map — an uncoalesced gather
    # that costs a half-cacheline transaction per token.
    gather = CACHELINE_BYTES / 2
    read = T * (8 + idx_b + gather) + dense  # map+topic reads, scan
    written = dense + theta_nnz * (idx_b + 4) + (D + 1) * 8
    flops = T * 2.0 + dense / 4.0 + theta_nnz * 2.0
    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=flops,
        atomic_ops=T,
        atomic_locality=0.8,   # per-document grouping gives decent locality
        num_blocks=max(1, D // SAMPLERS_PER_BLOCK + 1),
    )


def update_phi_cost(
    num_tokens: int,
    num_words: int,
    hyper: LDAHyperParams,
    config: KernelConfig,
) -> KernelCost:
    """Traffic of the φ-update kernel (§6.2).

    Zero the partial replica, then one global atomic add per token.
    Tokens are word-sorted, so the atomics hit consecutive φ entries —
    the high-locality case the paper measures as fast.
    """
    T = num_tokens
    K, V = hyper.num_topics, num_words
    phi_b = config.phi_bytes
    written = float(K) * V * phi_b       # zero the replica
    read = T * (config.index_bytes + 4)  # topic + word stream
    # Atomic adds write transaction-granular lines; word-sorting keeps
    # them mostly within a line but each (k, v) hit still costs one.
    written += T * (CACHELINE_BYTES / 4)
    return KernelCost(
        bytes_read=read,
        bytes_written=written,
        flops=T * 1.0,
        atomic_ops=T,
        atomic_locality=0.95,
        num_blocks=max(1, T // BLOCK_TOKEN_CAPACITY + 1),
    )


def phi_reduce_cost(num_topics: int, num_words: int, config: KernelConfig) -> KernelCost:
    """Traffic of adding one φ replica into another (sync step, §5.2)."""
    n = float(num_topics) * num_words
    phi_b = config.phi_bytes
    return KernelCost(
        bytes_read=2 * n * phi_b,
        bytes_written=n * phi_b,
        flops=n,
        num_blocks=max(1, int(n) // (BLOCK_TOKEN_CAPACITY * 32) + 1),
    )
