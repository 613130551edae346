"""The curated benchmark suite.

Importing this module populates :data:`repro.obs.registry.REGISTRY`
with every scenario ``repro-lda bench`` can run. Three groups:

- **train** — simulated-clock throughput of all five trainers (CuLDA
  plus the four baselines), deterministic to the bit.
- **sync** — multi-GPU model synchronization: bytes on the wire and
  reduce-step times per topology (tree / ring / cpu-gather), plus
  planner scenarios pitting ``--sync auto`` against the forced
  reduce-tree on PCIe and NVLink fabrics (see ``docs/SYNC.md``).
- **serve** — end-to-end serving latency from a seeded loadgen trace,
  including a chaos + hedging scenario (failover/hedge overhead).

Every metric is exact (simulated clock or otherwise deterministic).
Host wall-clock speed is ``perfbench/``'s job.

Workloads are deliberately small: the whole suite runs in CI on every
change, in seconds, and is gated against the committed ``BENCH.json``
(see ``docs/BENCHMARKS.md`` for how to add a scenario).
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.obs.registry import REGISTRY, Measurement
from repro.obs.workloads import (
    make_baseline,
    make_corpus,
    make_culda,
    make_distributed_culda,
    train_tiny_checkpoint,
)

__all__ = ["REGISTRY"]


def _exact(value, unit, direction="lower") -> Measurement:
    return Measurement(value=float(value), unit=unit, direction=direction)


def _train_metrics(result) -> dict:
    metrics = {
        "tokens_per_sec": _exact(
            result.avg_tokens_per_sec, "tokens/s", "higher"
        ),
        "sim_seconds": _exact(result.total_sim_seconds, "s", "lower"),
    }
    if result.final_log_likelihood is not None:
        metrics["final_ll_per_token"] = _exact(
            result.final_log_likelihood, "nats/token", "info"
        )
    return metrics


def _sync_metrics(registry) -> dict:
    metrics: dict[str, Measurement] = {}
    counter = registry.get("sync_bytes_total")
    if counter is not None:
        metrics["sync_bytes"] = _exact(
            sum(s.value for s in counter.samples()), "bytes", "lower"
        )
    hist = registry.get("sync_reduce_step_seconds")
    if hist is not None:
        total = count = 0.0
        for key in hist.label_keys():
            labels = hist._label_dict(key)
            total += hist.sum(**labels)
            count += hist.count(**labels)
        if count:
            metrics["reduce_step_mean_seconds"] = _exact(
                total / count, "s", "lower"
            )
    return metrics


# ----------------------------------------------------------------------
# train / sync
# ----------------------------------------------------------------------

@REGISTRY.scenario(
    "train/culda_pascal_1gpu", "train",
    "CuLDA on 1 Pascal GPU: NYTimes twin, 20k tokens, K=32, 5 iters",
    corpus="nytimes", tokens=20_000, topics=32, iterations=5,
    platform="pascal", gpus=1,
)
def _culda_1gpu() -> dict:
    corpus = make_corpus("nytimes", tokens=20_000, seed=0)
    result = make_culda(
        corpus, platform="pascal", gpus=1,
        num_topics=32, iterations=5, seed=0, likelihood_every=5,
    ).train()
    return _train_metrics(result)


def _culda_4gpu(sync: str) -> dict:
    from repro.telemetry import MetricsRegistry

    corpus = make_corpus("pubmed", tokens=60_000, seed=1, vocab_cap=2_048)
    registry = MetricsRegistry()
    result = make_culda(
        corpus, platform="pascal", gpus=4, registry=registry,
        num_topics=32, iterations=4, seed=0, chunks_per_gpu=1,
        sync_algorithm=sync,
    ).train()
    return {**_train_metrics(result), **_sync_metrics(registry)}


@REGISTRY.scenario(
    "sync/culda_pascal_4gpu_tree", "sync",
    "CuLDA on 4 Pascal GPUs, reduce-tree sync: PubMed twin, 60k tokens",
    corpus="pubmed", tokens=60_000, topics=32, iterations=4,
    platform="pascal", gpus=4, sync="gpu_tree",
)
def _culda_4gpu_tree() -> dict:
    return _culda_4gpu("gpu_tree")


@REGISTRY.scenario(
    "sync/culda_pascal_4gpu_ring", "sync",
    "CuLDA on 4 Pascal GPUs, ring all-reduce sync: PubMed twin, 60k tokens",
    corpus="pubmed", tokens=60_000, topics=32, iterations=4,
    platform="pascal", gpus=4, sync="ring",
)
def _culda_4gpu_ring() -> dict:
    return _culda_4gpu("ring")


@REGISTRY.scenario(
    "sync/culda_pascal_4gpu_cpu_gather", "sync",
    "CuLDA on 4 Pascal GPUs, host gather/scatter sync: PubMed twin",
    corpus="pubmed", tokens=60_000, topics=32, iterations=4,
    platform="pascal", gpus=4, sync="cpu_gather",
)
def _culda_4gpu_cpu_gather() -> dict:
    return _culda_4gpu("cpu_gather")


def _node_scaling_run(nodes: int):
    corpus = make_corpus("pubmed", tokens=240_000, seed=1, vocab_cap=2_048)
    kwargs = dict(num_topics=32, iterations=3, seed=0, chunks_per_gpu=1)
    if nodes == 1:
        return make_culda(corpus, platform="pascal", gpus=2, **kwargs).train()
    return make_distributed_culda(
        corpus, nodes=nodes, gpus_per_node=2,
        link_gbps=12.5, latency_seconds=5e-6, **kwargs,
    ).train()


@REGISTRY.scenario(
    "train/culda_node_scaling", "train",
    "Multi-node CuLDA node scaling: 1/2/4 nodes x 2 Pascal GPUs over a "
    "100 GbE-class fabric, PubMed twin 240k tokens; throughput must "
    "grow monotonically with node count",
    corpus="pubmed", tokens=240_000, topics=32, iterations=3,
    platform="pascal", gpus_per_node=2, nodes=(1, 2, 4),
    link_gbps=12.5,
)
def _culda_node_scaling() -> dict:
    results = {n: _node_scaling_run(n) for n in (1, 2, 4)}
    tps = {n: r.avg_tokens_per_sec for n, r in results.items()}
    if not tps[1] < tps[2] < tps[4]:
        raise AssertionError(
            "node scaling is not monotone: "
            + ", ".join(f"{n} nodes={tps[n]:.3e} tok/s" for n in (1, 2, 4))
        )
    return {
        "tokens_per_sec_1node": _exact(tps[1], "tokens/s", "higher"),
        "tokens_per_sec_2node": _exact(tps[2], "tokens/s", "higher"),
        "tokens_per_sec_4node": _exact(tps[4], "tokens/s", "higher"),
        "scaling_efficiency_4node": _exact(
            tps[4] / (4 * tps[1]), "ratio", "higher"
        ),
        "sim_seconds_4node": _exact(
            results[4].total_sim_seconds, "s", "lower"
        ),
    }


@REGISTRY.scenario(
    "train/culda_node_loss_recovery", "train",
    "Multi-node CuLDA elastic node-loss recovery: node death mid-run "
    "on 2 nodes x 2 Pascal GPUs; recovery stall and post-recovery "
    "throughput vs the fault-free run (models must stay bit-identical)",
    corpus="pubmed", tokens=60_000, topics=32, iterations=6,
    platform="pascal", nodes=2, gpus_per_node=2,
)
def _culda_node_loss() -> dict:
    from repro.faults.plan import FaultPlan, FaultSpec
    from repro.obs.profiling import counter_total
    from repro.telemetry import MetricsRegistry

    corpus = make_corpus("pubmed", tokens=60_000, seed=1, vocab_cap=2_048)
    kwargs = dict(num_topics=32, iterations=6, seed=0)
    clean = make_distributed_culda(
        corpus, nodes=2, gpus_per_node=2, **kwargs
    ).train()
    registry = MetricsRegistry()
    plan = FaultPlan(faults=(
        FaultSpec(kind="node_failure", iteration=2, node=1),
    ))
    faulted = make_distributed_culda(
        corpus, nodes=2, gpus_per_node=2, registry=registry, **kwargs
    ).train(recovery="elastic", fault_plan=plan)
    if not np.array_equal(faulted.phi, clean.phi):
        raise AssertionError(
            "recovered phi diverged from the fault-free run"
        )
    # The last iteration runs entirely after the migration, so its
    # throughput is the steady post-recovery rate (no stall charged).
    post_tps = corpus.num_tokens / faulted.iterations[-1].sim_seconds
    return {
        "recovery_stall_seconds": _exact(
            counter_total(registry, "node_recovery_stall_seconds_total"),
            "s", "lower",
        ),
        "recovery_overhead_seconds": _exact(
            faulted.total_sim_seconds - clean.total_sim_seconds, "s",
            "lower",
        ),
        "post_recovery_tokens_per_sec": _exact(
            post_tps, "tokens/s", "higher"
        ),
        "post_recovery_throughput_ratio": _exact(
            post_tps / clean.avg_tokens_per_sec, "ratio", "higher"
        ),
        "workers_migrated": _exact(
            counter_total(registry, "workers_migrated_total"),
            "count", "info",
        ),
        "sim_seconds": _exact(faulted.total_sim_seconds, "s", "lower"),
    }


def _internode_backend_run(backend: str):
    from repro.telemetry import MetricsRegistry

    corpus = make_corpus("pubmed", tokens=60_000, seed=1, vocab_cap=2_048)
    registry = MetricsRegistry()
    result = make_distributed_culda(
        corpus, nodes=2, gpus_per_node=2, registry=registry,
        num_topics=32, iterations=4, seed=0, chunks_per_gpu=1,
        inter_sync=backend,
    ).train()
    counter = registry.get("internode_sync_bytes_total")
    internode_bytes = (
        sum(s.value for s in counter.samples()) if counter else 0.0
    )
    return result, internode_bytes


@REGISTRY.scenario(
    "sync/culda_internode_backends", "sync",
    "Inter-node phi-sync backend comparison on 2x2 GPUs over 10 GbE: "
    "eth_ring vs param_server timing; models must be bit-identical",
    corpus="pubmed", tokens=60_000, topics=32, iterations=4,
    platform="pascal", gpus_per_node=2, nodes=2,
)
def _culda_internode_backends() -> dict:
    ring, ring_bytes = _internode_backend_run("eth_ring")
    ps, ps_bytes = _internode_backend_run("param_server")
    if not np.array_equal(ring.phi, ps.phi):
        raise AssertionError(
            "eth_ring and param_server produced different models"
        )
    return {
        "ring_sim_seconds": _exact(ring.total_sim_seconds, "s", "lower"),
        "param_server_sim_seconds": _exact(
            ps.total_sim_seconds, "s", "lower"
        ),
        "ring_internode_bytes": _exact(ring_bytes, "bytes", "lower"),
        "param_server_internode_bytes": _exact(ps_bytes, "bytes", "lower"),
        "param_server_overhead_ratio": _exact(
            ps.total_sim_seconds / ring.total_sim_seconds, "ratio", "info"
        ),
    }


def _planner_run(platform: str, sync: str):
    from repro.telemetry import MetricsRegistry

    corpus = make_corpus("pubmed", tokens=60_000, seed=1, vocab_cap=2_048)
    registry = MetricsRegistry()
    trainer = make_culda(
        corpus, platform=platform, gpus=4, registry=registry,
        num_topics=64, iterations=4, seed=0, chunks_per_gpu=1,
        sync_algorithm=sync,
    )
    result = trainer.train()
    comm_seconds = sum(
        iv.duration for iv in trainer.machine.trace.intervals
        if iv.kind in ("sync", "p2p")
    )
    return result, registry, comm_seconds


def _planner_metrics(platform: str) -> dict:
    """Auto (planner-chosen) vs forced reduce-tree sync on one topology.

    ``planner_decision`` records which collective the planner picked as
    an index into :func:`repro.comm.collective_names` — ``info``
    direction, since a pick has no better side; a changed pick still
    fails the gate as drift. ``tree_*`` metrics are info too: the
    forced-tree run is the reference line for auto's numbers.
    """
    from repro.comm import collective_names, decisions_from_registry

    auto, registry, auto_comm = _planner_run(platform, "auto")
    tree, _, tree_comm = _planner_run(platform, "gpu_tree")
    decisions = decisions_from_registry(registry)
    pick = decisions[0]["algorithm"] if decisions else "gpu_tree"
    return {
        "auto_sim_seconds": _exact(auto.total_sim_seconds, "s", "lower"),
        "tree_sim_seconds": _exact(tree.total_sim_seconds, "s", "info"),
        "auto_comm_seconds": _exact(auto_comm, "s", "lower"),
        "tree_comm_seconds": _exact(tree_comm, "s", "info"),
        "planner_decision": _exact(
            collective_names().index(pick), "enum", "info"
        ),
        **_sync_metrics(registry),
    }


@REGISTRY.scenario(
    "sync/planner_pascal_4gpu", "sync",
    "Sync planner on 4 Pascal GPUs (dual-socket PCIe): auto vs forced tree",
    corpus="pubmed", tokens=60_000, topics=64, iterations=4,
    platform="pascal", gpus=4, sync="auto",
)
def _planner_pascal() -> dict:
    return _planner_metrics("pascal")


@REGISTRY.scenario(
    "sync/planner_dgx_4gpu", "sync",
    "Sync planner on 4 DGX GPUs (all-NVLink): auto vs forced tree",
    corpus="pubmed", tokens=60_000, topics=64, iterations=4,
    platform="dgx", gpus=4, sync="auto",
)
def _planner_dgx() -> dict:
    return _planner_metrics("dgx")


@REGISTRY.scenario(
    "train/culda_volta_2gpu_large", "train",
    "CuLDA on 2 Volta GPUs: NYTimes twin, 120k tokens, K=64, 5 iters",
    corpus="nytimes", tokens=120_000, topics=64, iterations=5,
    platform="volta", gpus=2,
)
def _culda_volta_large() -> dict:
    corpus = make_corpus("nytimes", tokens=120_000, seed=0)
    result = make_culda(
        corpus, platform="volta", gpus=2,
        num_topics=64, iterations=5, seed=0, chunks_per_gpu=1,
    ).train()
    return _train_metrics(result)


@REGISTRY.scenario(
    "train/saberlda_pascal_1gpu", "train",
    "SaberLDA baseline on 1 Pascal GPU: NYTimes twin, 20k tokens, 3 iters",
    corpus="nytimes", tokens=20_000, topics=32, iterations=3,
    platform="pascal", gpus=1,
)
def _saberlda() -> dict:
    corpus = make_corpus("nytimes", tokens=20_000, seed=0)
    result = make_baseline(
        corpus, "saberlda", num_topics=32, seed=0, platform="pascal",
        iterations=3,
    ).train()
    return _train_metrics(result)


@REGISTRY.scenario(
    "train/warplda_cpu", "train",
    "WarpLDA CPU baseline: NYTimes twin, 20k tokens, K=32, 3 iters",
    corpus="nytimes", tokens=20_000, topics=32, iterations=3,
)
def _warplda() -> dict:
    corpus = make_corpus("nytimes", tokens=20_000, seed=0)
    result = make_baseline(corpus, "warplda", num_topics=32, seed=0).train(
        iterations=3
    )
    return _train_metrics(result)


@REGISTRY.scenario(
    "train/ldastar_4workers", "train",
    "LDA* distributed baseline, 4 workers: NYTimes twin, 20k tokens",
    corpus="nytimes", tokens=20_000, topics=32, iterations=3, workers=4,
)
def _ldastar() -> dict:
    corpus = make_corpus("nytimes", tokens=20_000, seed=0)
    result = make_baseline(
        corpus, "ldastar", num_topics=32, seed=0, num_workers=4
    ).train(iterations=3)
    metrics = _train_metrics(result)
    metrics["network_bytes"] = _exact(result.network_bytes, "bytes", "lower")
    return metrics


@REGISTRY.scenario(
    "train/ldastar_node_loss_recovery", "train",
    "LDA* elastic node-loss recovery: default cluster chaos plan on "
    "4 workers; recovery overhead vs the fault-free run",
    corpus="nytimes", tokens=20_000, topics=32, iterations=6, workers=4,
)
def _ldastar_node_loss() -> dict:
    from repro.faults.plan import cluster_chaos_plan

    corpus = make_corpus("nytimes", tokens=20_000, seed=0)
    clean = make_baseline(
        corpus, "ldastar", num_topics=32, seed=0, num_workers=4
    ).train(iterations=6)
    star = make_baseline(
        corpus, "ldastar", num_topics=32, seed=0, num_workers=4
    )
    faulted = star.train(
        iterations=6, recovery="elastic", fault_plan=cluster_chaos_plan(4)
    )
    if not np.array_equal(faulted.phi, clean.phi):
        raise AssertionError(
            "recovered phi diverged from the fault-free run"
        )
    return {
        "recovery_overhead_seconds": _exact(
            faulted.total_sim_seconds - clean.total_sim_seconds, "s",
            "lower",
        ),
        "reshard_bytes": _exact(
            star.server.bytes_resharded, "bytes", "lower"
        ),
        "repartitions": _exact(faulted.repartitions, "count", "info"),
        "failover_reads": _exact(
            sum(1 for e in star.server.events
                if e["kind"] == "failover_read"),
            "count", "info",
        ),
        "sim_seconds": _exact(faulted.total_sim_seconds, "s", "lower"),
    }


@REGISTRY.scenario(
    "train/scvb0_convergence", "train",
    "SCVB0 baseline (untimed clock): final likelihood",
    corpus="nytimes", tokens=10_000, topics=32, iterations=3,
)
def _scvb0() -> dict:
    corpus = make_corpus("nytimes", tokens=10_000, seed=0)
    result = make_baseline(corpus, "scvb0", num_topics=32, seed=0).train(
        iterations=3, likelihood_every=3
    )
    return {
        "final_ll_per_token": _exact(
            result.final_log_likelihood, "nats/token", "info"
        )
    }


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def _serve_report(
    gpus: int,
    platform: str,
    rate: float,
    duration: float,
    seed: int,
    chaos: bool = False,
    hedge_quantile: float | None = None,
):
    from repro.serve import (
        HedgePolicy,
        InferenceService,
        ServiceConfig,
        default_chaos_plan,
        poisson_trace,
    )
    from repro.core import load_model
    from repro.obs.workloads import make_platform

    with tempfile.TemporaryDirectory() as tmp:
        model_path = train_tiny_checkpoint(Path(tmp) / "model.npz")
        num_words = int(load_model(model_path).phi.shape[1])
        requests = poisson_trace(
            [model_path], num_words, rate=rate, duration=duration, seed=seed,
        )
        service = InferenceService(
            make_platform(platform, gpus),
            ServiceConfig(
                hedge=(
                    HedgePolicy(quantile=hedge_quantile, min_observations=8)
                    if hedge_quantile is not None else None
                ),
            ),
            fault_plan=default_chaos_plan(gpus) if chaos else None,
        )
        return service.run_trace(requests)


def _serve_metrics(report) -> dict:
    return {
        "latency_p50_seconds": _exact(report.latency_quantile(0.50), "s"),
        "latency_p95_seconds": _exact(report.latency_quantile(0.95), "s"),
        "latency_p99_seconds": _exact(report.latency_quantile(0.99), "s"),
        "throughput_rps": _exact(
            report.throughput_requests_per_sec, "req/s", "higher"
        ),
        "completed": _exact(report.count("completed"), "requests", "info"),
    }


@REGISTRY.scenario(
    "serve/loadgen_volta_2gpu", "serve",
    "Poisson loadgen on 2 Volta replicas: 3000 req/s for 20 ms",
    platform="volta", gpus=2, rate=3000.0, duration=0.02, seed=0,
)
def _serve_2gpu() -> dict:
    return _serve_metrics(
        _serve_report(2, "volta", rate=3000.0, duration=0.02, seed=0)
    )


@REGISTRY.scenario(
    "serve/chaos_hedge_pascal_4gpu", "serve",
    "Chaos plan + hedging on 4 Pascal replicas: failover/hedge overhead",
    platform="pascal", gpus=4, rate=4000.0, duration=0.03, seed=2,
    chaos=True, hedge_quantile=0.9,
)
def _serve_chaos_hedge() -> dict:
    report = _serve_report(
        4, "pascal", rate=4000.0, duration=0.03, seed=2,
        chaos=True, hedge_quantile=0.9,
    )
    metrics = _serve_metrics(report)
    metrics["failovers"] = _exact(report.failovers, "count", "info")
    metrics["hedges"] = _exact(report.hedges, "count", "info")
    metrics["hedge_wins"] = _exact(report.hedge_wins, "count", "info")
    return metrics


@REGISTRY.scenario(
    "serve/loadgen_volta_4gpu_scale", "serve",
    "Poisson loadgen on 4 Volta replicas: 8000 req/s for 20 ms",
    platform="volta", gpus=4, rate=8000.0, duration=0.02, seed=0,
)
def _serve_4gpu() -> dict:
    return _serve_metrics(
        _serve_report(4, "volta", rate=8000.0, duration=0.02, seed=0)
    )
