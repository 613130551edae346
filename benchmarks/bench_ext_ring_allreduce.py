"""Extension: ring all-reduce vs the paper's reduce tree (§5.2 design
alternative).

NCCL-style rings move 2·(G−1)/G replicas per link (bandwidth-optimal);
the paper's tree moves ⌈log₂G⌉ full replicas through its busiest path
but takes fewer latency-bound steps. This bench measures the crossover
on the simulated Pascal box and verifies both produce identical models
through the trainer.
"""

from __future__ import annotations

import numpy as np

from conftest import banner
from repro.core import CuLDA, TrainConfig
from repro.core.kernels import KernelConfig
from repro.corpus.synthetic import pubmed_like
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import pascal_platform
from repro.comm.collectives import broadcast_phi, reduce_phi_tree, ring_allreduce_phi


def _setup(machine, K, V):
    rng = np.random.default_rng(0)
    G = len(machine.gpus)
    partials = [
        DeviceArray(machine.gpus[g], (K, V), np.uint16,
                    fill=rng.integers(0, 9, (K, V)).astype(np.uint16))
        for g in range(G)
    ]
    scratch = [DeviceArray(machine.gpus[g], (K, V), np.uint16) for g in range(G)]
    fulls = [DeviceArray(machine.gpus[g], (K, V), np.uint16) for g in range(G)]
    streams = [machine.gpus[g].create_stream("sync") for g in range(G)]
    return partials, scratch, fulls, streams


def test_ext_ring_vs_tree_raw(benchmark):
    cfg = KernelConfig()
    K, V = 1024, 100_000

    def ring():
        m = pascal_platform(4)
        p, s, f, st = _setup(m, K, V)
        m.reset_clock()
        ring_allreduce_phi(m, p, f, st, cfg)
        return m.synchronize()

    t_ring = benchmark.pedantic(ring, rounds=1, iterations=1)

    m = pascal_platform(4)
    p, s, f, st = _setup(m, K, V)
    m.reset_clock()
    root = reduce_phi_tree(m, p, s, st, cfg)
    broadcast_phi(m, root, f, st, cfg)
    t_tree = m.synchronize()

    banner("Extension: ring all-reduce vs reduce tree (K=1024, V=100k, 4 GPUs)")
    print(f"  reduce tree + broadcast: {t_tree * 1e3:7.2f} ms")
    print(f"  ring all-reduce:         {t_ring * 1e3:7.2f} ms")
    winner = "ring" if t_ring < t_tree else "tree"
    print(f"  winner at this scale: {winner} ({max(t_ring, t_tree) / min(t_ring, t_tree):.2f}x)")
    # Both finish in the same order of magnitude; sanity bounds.
    assert 0.2 < t_ring / t_tree < 5.0


def test_ext_ring_end_to_end(benchmark):
    corpus = pubmed_like(num_tokens=60_000, num_topics=8, seed=1)
    base = TrainConfig(num_topics=128, iterations=4, seed=0)
    from dataclasses import replace

    ring = benchmark.pedantic(
        lambda: CuLDA(corpus, pascal_platform(4),
                      replace(base, sync_algorithm="ring")).train(),
        rounds=1, iterations=1,
    )
    tree = CuLDA(corpus, pascal_platform(4), base).train()
    banner("Extension: ring sync end-to-end (4 GPUs)")
    print(f"  gpu_tree: {tree.total_sim_seconds * 1e3:7.2f} ms")
    print(f"  ring:     {ring.total_sim_seconds * 1e3:7.2f} ms")
    assert np.array_equal(ring.phi, tree.phi)
