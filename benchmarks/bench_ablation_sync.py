"""Ablation: φ synchronization algorithm (§5.2).

GPU reduce-tree + broadcast (Fig 4) versus the intuitive
gather-to-CPU-and-add baseline the paper rejects. Both at the raw sync
level (big φ, 4 GPUs) and end-to-end through the trainer.
"""

from __future__ import annotations

import numpy as np

from conftest import banner, make_corpus, make_culda
from repro.core.kernels import KernelConfig
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import pascal_platform
from repro.comm.collectives import broadcast_phi, cpu_gather_sync, reduce_phi_tree

K, V = 1024, 100_000  # paper-scale φ


def _setup(machine):
    rng = np.random.default_rng(0)
    G = len(machine.gpus)
    partials = [
        DeviceArray(machine.gpus[g], (K, V), np.uint16,
                    fill=rng.integers(0, 10, (K, V)).astype(np.uint16))
        for g in range(G)
    ]
    scratch = [DeviceArray(machine.gpus[g], (K, V), np.uint16) for g in range(G)]
    fulls = [DeviceArray(machine.gpus[g], (K, V), np.uint16) for g in range(G)]
    streams = [machine.gpus[g].create_stream("sync") for g in range(G)]
    return partials, scratch, fulls, streams


def test_ablation_sync_raw(benchmark):
    cfg = KernelConfig()

    def tree():
        m = pascal_platform(4)
        p, s, f, st = _setup(m)
        m.reset_clock()
        root = reduce_phi_tree(m, p, s, st, cfg)
        broadcast_phi(m, root, f, st, cfg)
        return m.synchronize()

    t_tree = benchmark.pedantic(tree, rounds=1, iterations=1)

    m = pascal_platform(4)
    p, s, f, st = _setup(m)
    m.reset_clock()
    cpu_gather_sync(m, p, f, st, cfg)
    t_cpu = m.synchronize()

    banner("Ablation: GPU reduce-tree vs CPU gather sync (K=1024, V=100k, 4 GPUs)")
    print(f"  GPU reduce tree + broadcast: {t_tree * 1e3:7.2f} ms simulated")
    print(f"  gather-to-CPU + scatter:     {t_cpu * 1e3:7.2f} ms simulated")
    print(f"  tree advantage: {t_cpu / t_tree:.2f}x")
    assert t_tree < t_cpu


def test_ablation_sync_end_to_end(benchmark):
    corpus = make_corpus("pubmed", tokens=60_000, num_topics=8, seed=1)
    base = dict(num_topics=128, iterations=4, seed=0)

    tree = benchmark.pedantic(
        lambda: make_culda(corpus, platform="pascal", gpus=4,
                           **base).train(),
        rounds=1, iterations=1,
    )
    gather = make_culda(
        corpus, platform="pascal", gpus=4, sync_algorithm="cpu_gather",
        **base,
    ).train()

    banner("Ablation: sync algorithm, end-to-end (4 GPUs)")
    print(f"  gpu_tree:   {tree.total_sim_seconds * 1e3:7.2f} ms")
    print(f"  cpu_gather: {gather.total_sim_seconds * 1e3:7.2f} ms")
    assert tree.total_sim_seconds < gather.total_sim_seconds
    assert np.array_equal(tree.phi, gather.phi)
