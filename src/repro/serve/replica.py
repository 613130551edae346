"""φ replicas on the simulated GPUs and the batched fold-in launch.

One :class:`PhiReplica` per simulated GPU holds resident φ buffers
(capacity-enforced device memory, LRU-evicted under pressure) and a
dedicated ``serve`` stream. Executing a batch charges the simulated
clock for three things, the same way training does:

1. **token upload** — the batch's token ids over the replica's PCIe
   uplink (:meth:`Machine.memcpy_h2d`);
2. **the fold-in kernel** — ``iterations`` sampling sweeps plus θ
   recounts, costed from the batch's *combined* word-first chunk, so
   coalescing requests genuinely amortizes the shared p\\*/p₂ staging
   (fewer word segments than the per-request chunks summed);
3. **result download** — the stacked ``doc_topic`` rows back to the
   host.

Functionally the batch is folded in by one
:func:`repro.core.inference.infer_documents` call over all its requests
(one per distinct sweep count), so the host also samples the combined
chunk: one sampling call per sweep for the whole batch. Each request
keeps its own seed and RNG stream, so its payload is bit-identical to a
direct call — batching, placement, and failover only move *time*, never
bits. The fault surface is the same as training's: a dead device raises
:class:`~repro.gpusim.errors.DeviceLost` at enqueue, a dead or flaky
uplink raises :class:`~repro.gpusim.errors.LinkDown` at the link
reservation, an armed kernel fault raises
:class:`~repro.gpusim.errors.KernelFault` — the scheduler catches all
of them and fails over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import InferenceResult, infer_documents
from repro.core.kernels import (
    KernelConfig,
    SamplingStats,
    sampling_cost,
    sampling_launch_plan,
    tree_search_levels,
    update_theta_cost,
)
from repro.core.model import LDAHyperParams
from repro.corpus.corpus import Corpus
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray, DeviceOutOfMemoryError
from repro.serve.request import InferenceRequest

__all__ = ["PhiReplica", "BatchExecution", "foldin_batch_cost"]


def foldin_batch_cost(
    corpus: Corpus,
    hyper: LDAHyperParams,
    config: KernelConfig,
    iterations: int,
) -> KernelCost:
    """Roofline cost of ``iterations`` fold-in sweeps over *corpus*.

    Uses the training kernels' own cost formulas with fold-in estimates
    for the data-dependent terms: a new document's θ row holds at most
    ``min(K, L_d)`` topics, and the sparse branch dominates once θ
    concentrates (the same p₁-fraction shape Fig 7 shows), estimated at
    80%. These estimates steer only the simulated clock — results are
    computed exactly.
    """
    chunk = corpus.to_chunk()
    T, K = chunk.num_tokens, hyper.num_topics
    lengths = chunk.doc_lengths
    kd_per_doc = np.minimum(lengths, K)
    kd_sum = int((lengths * kd_per_doc).sum())
    num_blocks, num_segments = sampling_launch_plan(chunk.word_indptr)
    p1_draws = int(0.8 * T)
    mean_kd = kd_sum // max(T, 1)
    probe = int(
        p1_draws * tree_search_levels(max(mean_kd, 1), config.tree_fanout)[0]
        + (T - p1_draws) * tree_search_levels(K, config.tree_fanout)[0]
    )
    stats = SamplingStats(
        num_tokens=T,
        kd_sum=kd_sum,
        p1_draws=p1_draws,
        num_word_segments=num_segments,
        num_blocks=num_blocks,
        tree_probe_levels=probe,
    )
    sample = sampling_cost(stats, hyper, corpus.num_words, config)
    theta = update_theta_cost(T, chunk.num_docs, kd_sum, hyper, config)
    return KernelCost(
        bytes_read=(sample.bytes_read + theta.bytes_read) * iterations,
        bytes_written=(sample.bytes_written + theta.bytes_written) * iterations,
        flops=(sample.flops + theta.flops) * iterations,
        atomic_ops=theta.atomic_ops * iterations,
        atomic_locality=theta.atomic_locality,
        num_blocks=sample.num_blocks,
        shared_mem_per_block=sample.shared_mem_per_block,
    )


@dataclass
class BatchExecution:
    """Timing and payload of one dispatched batch.

    ``stages`` carries the per-stage simulated intervals —
    ``("staging" | "kernel" | "download", start, end)`` — that request
    tracing (:mod:`repro.telemetry.tracing`) turns into child spans.
    """

    results: list[InferenceResult]
    start: float
    end: float
    replica_id: int
    stages: tuple[tuple[str, float, float], ...] = ()


class PhiReplica:
    """One GPU's serving state: resident φ buffers + a serve stream."""

    def __init__(self, device: Device):
        self.device = device
        self.stream = device.create_stream("serve")
        #: digest → device-resident φ buffer, in LRU order.
        self._models: dict[str, DeviceArray] = {}

    @property
    def replica_id(self) -> int:
        return self.device.device_id

    @property
    def alive(self) -> bool:
        return self.device.alive

    def busy_until(self) -> float:
        """When this replica's serve stream drains (load metric)."""
        return self.stream.available_at

    def has_model(self, digest: str) -> bool:
        return digest in self._models

    # ------------------------------------------------------------------
    def ensure_model(self, digest: str, phi: np.ndarray) -> bool:
        """Make φ resident on this replica; returns True if a (timed)
        upload happened, False on a residency hit.

        Under memory pressure the replica evicts its least-recently
        used φ buffers until the new one fits (raising only if φ cannot
        fit even on an empty device).
        """
        buf = self._models.get(digest)
        if buf is not None:
            # LRU touch.
            self._models[digest] = self._models.pop(digest)
            return False
        machine = self.device.machine
        phi32 = np.ascontiguousarray(phi, dtype=np.int32)
        while True:
            try:
                buf = DeviceArray(
                    self.device, phi32.shape, np.int32,
                    label=f"phi[{digest[:8]}]",
                )
                break
            except DeviceOutOfMemoryError:
                if not self._models:
                    raise
                _, victim = next(iter(self._models.items()))
                self._drop(victim)
        try:
            machine.memcpy_h2d(buf, phi32, stream=self.stream, label="phi_load")
        except BaseException:
            buf.free()
            raise
        self._models[digest] = buf
        return True

    def _drop(self, victim: DeviceArray) -> None:
        for key, buf in list(self._models.items()):
            if buf is victim:
                del self._models[key]
        victim.free()

    def evict_all(self) -> None:
        """Free every resident φ buffer (shutdown / tests)."""
        for buf in list(self._models.values()):
            buf.free()
        self._models.clear()

    # ------------------------------------------------------------------
    def execute(
        self,
        batch: list[InferenceRequest],
        phi: np.ndarray,
        hyper: LDAHyperParams,
        default_iterations: int,
        config: KernelConfig,
        not_before: float,
        batch_id: int,
    ) -> BatchExecution:
        """Run *batch* on this replica, charging the simulated clock.

        Raises any :class:`~repro.gpusim.errors.FaultError` the
        simulated hardware surfaces; the caller owns failover. Staged
        buffers are freed on both paths so a failed attempt does not
        leak device memory across a failover retry.
        """
        machine = self.device.machine
        num_words = int(phi.shape[1])
        corpora = [
            Corpus.from_documents(
                req.docs, num_words=num_words, name=f"req{req.request_id}"
            )
            for req in batch
        ]
        combined = Corpus.concatenate(corpora, num_words, name="serve-batch")
        sweeps = [
            req.iterations if req.iterations is not None else default_iterations
            for req in batch
        ]
        iterations = max(sweeps)
        cost = foldin_batch_cost(combined, hyper, config, iterations)

        token_buf = DeviceArray(
            self.device, (combined.num_tokens,), np.int32,
            label=f"serve_tokens[{batch_id}]",
        )
        out_buf: DeviceArray | None = None
        try:
            start, h2d_end = machine.memcpy_h2d(
                token_buf, combined.token_word, stream=self.stream,
                label="serve_tokens_h2d",
            )

            def run_foldin() -> list[InferenceResult]:
                groups: dict[int, list[int]] = {}
                for i, n in enumerate(sweeps):
                    groups.setdefault(n, []).append(i)
                results: list[InferenceResult] = [None] * len(batch)
                for n, members in groups.items():
                    folded = infer_documents(
                        [corpora[i] for i in members], phi, hyper,
                        iterations=n, seed=[batch[i].seed for i in members],
                        config=config,
                    )
                    for i, result in zip(members, folded):
                        results[i] = result
                return results

            kernel_start, kernel_end, results = KernelLaunch(
                fn=run_foldin,
                cost=cost,
                label=f"serve_batch[{batch_id}]",
                kind="serve",
            ).launch(self.stream, not_before=max(not_before, h2d_end))

            doc_topic = np.concatenate([r.doc_topic for r in results], axis=0)
            out_buf = DeviceArray(
                self.device, doc_topic.shape, np.float64,
                fill=doc_topic, label=f"serve_out[{batch_id}]",
            )
            d2h_start, end, _ = machine.memcpy_d2h(
                out_buf, stream=self.stream, label="serve_result_d2h"
            )
            return BatchExecution(
                results=list(results), start=start, end=end,
                replica_id=self.replica_id,
                stages=(
                    ("staging", start, h2d_end),
                    ("kernel", kernel_start, kernel_end),
                    ("download", d2h_start, end),
                ),
            )
        finally:
            if not token_buf.freed:
                token_buf.free()
            if out_buf is not None and not out_buf.freed:
                out_buf.free()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PhiReplica(gpu={self.replica_id}, alive={self.alive}, "
            f"models={len(self._models)}, busy_until={self.busy_until():.6f})"
        )
