"""The benchmark's three workloads, built only from the library's public API.

Each workload has three parts:

- ``prepare(seed, workdir)`` makes the inputs from the seed (corpus,
  served checkpoint, arrival trace). It is not timed.
- ``run()`` is one timed job: construct a fresh trainer or service and
  run it. The traced run wraps exactly this call in its root span.
- ``check(raw)`` checks that job's outputs and reads its metrics into a
  :class:`JobResult`.

Every ``repro`` and NumPy import is deferred to a method, so that the
set-up probe (:func:`setup_probe`) can time the package import, NumPy
included, in a fresh process.

Why these three (see README.md for the measured splits):

- ``train_1gpu`` — one V100, one resident chunk: the plain single-worker
  baseline where host time is the sampling kernel on one large chunk
  and no GPU-to-GPU traffic exists. A kernel change shows here; a
  communication change must not.
- ``train_4node`` — the same corpus on 4 nodes x 2 V100s over 10 GbE:
  the simulated clock is dominated by the intra- and inter-node sync
  legs, and the host runs the kernel on 8 smaller chunks.
- ``serve_foldin`` — the same kernel used read-only against a frozen φ
  for many small requests, where per-call set-up dominates.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from stats import tail_percentile

TOKENS = 240_000
TOPICS = 64
#: Iterations in one training job; the final one evaluates likelihood.
ITERATIONS = 5
PLATFORM = "volta"
NODES, GPUS_PER_NODE = 4, 2
SERVE_GPUS = 2
#: Open-loop arrival rate on the simulated clock, requests/s.
SERVE_RATE = 3000.0
#: Requests served per job: at 1,000, p99 has ten samples beyond it.
SERVE_REQUESTS = 1000
#: Simulated trace length generated before truncating to
#: SERVE_REQUESTS; 0.45 s at 3000 req/s is ~1350 arrivals, far more
#: than 1,000 for any seed.
SERVE_TRACE_SECONDS = 0.45
#: Sweeps used to train the served checkpoint in set-up.
CHECKPOINT_ITERATIONS = 3
#: Completed requests re-inferred for the payload bit-identity check.
PAYLOAD_SAMPLE = 64

#: The simulated-clock kinds a training timeline decomposes into
#: (``repro.core.culda.BREAKDOWN_KINDS``).
SIM_KINDS = ("sampling", "update_theta", "update_phi", "sync", "p2p", "h2d", "d2h")


@dataclass
class JobResult:
    """One timed job's outputs."""

    #: Host seconds of the measured work (train() after init_state, or
    #: run_trace()).
    wall_s: float
    #: Operations attempted (training iterations or requests) and the
    #: ones that failed or produced a wrong output.
    attempted: int
    failed: int
    violations: list[str]
    #: End-to-end metrics of this job.
    metrics: dict[str, float]
    #: Simulated-clock and count outputs; a rerun with the same seed
    #: must reproduce every one of them bit for bit.
    exact: dict[str, object]
    #: Per-layer simulated-clock and count metrics.
    layers: dict[str, float]
    #: System-CPU seconds (getrusage ru_stime) of the measured work.
    sys_s: float = 0.0


def _counters(registry) -> dict[str, float]:
    """Every counter series of a registry snapshot, summed per family."""
    return {
        name: float(sum(metric["series"].values()))
        for name, metric in registry.snapshot().items()
        if metric["kind"] == "counter"
    }


class TrainWorkload:
    """CuLDA on one machine or DistributedCuLDA on NODES machines."""

    def __init__(self, name: str, nodes: int, gpus_per_node: int,
                 save_run_state: bool):
        self.name = name
        self.nodes = nodes
        self.gpus_per_node = gpus_per_node
        self.save_run_state = save_run_state
        self.import_modules = ["repro.core", "repro.gpusim.platform"]
        if nodes > 1:
            self.import_modules.append("repro.cluster.network")

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.corpus.synthetic import pubmed_like

        self.seed = seed
        self.corpus = pubmed_like(num_tokens=TOKENS, num_topics=TOPICS, seed=seed)
        self.ckpt = workdir / f"{self.name}-{seed}.run_state.npz"

    def build(self):
        from repro.core import CuLDA, DistributedCuLDA, TrainConfig
        from repro.gpusim.platform import make_machine

        config = TrainConfig(num_topics=TOPICS, iterations=ITERATIONS, seed=self.seed)
        if self.nodes == 1:
            return CuLDA(
                self.corpus,
                machine=make_machine(PLATFORM, self.gpus_per_node),
                config=config,
            )
        from repro.cluster.network import ClusterNetwork

        return DistributedCuLDA(
            self.corpus,
            [make_machine(PLATFORM, self.gpus_per_node) for _ in range(self.nodes)],
            network=ClusterNetwork(self.nodes),
            config=config,
        )

    def setup(self) -> None:
        """The set-up ``setup_s`` times: construct, then init_state."""
        self.build().init_state()

    def run(self):
        """The timed part: construct, then train()."""
        from repro.telemetry.callbacks import TrainerCallback

        trainer = self.build()
        init_seconds: list[float] = []
        init_state = trainer.init_state

        def timed_init_state(*args, **kwargs):
            start = time.perf_counter()
            try:
                return init_state(*args, **kwargs)
            finally:
                init_seconds.append(time.perf_counter() - start)

        trainer.init_state = timed_init_state
        bad: dict[int, list[str]] = {}

        class ReplicaCheck(TrainerCallback):
            def on_iteration_end(self, event: dict) -> None:
                found = trainer.check_invariants(None)
                if found:
                    bad[event["iteration"]] = found

        kwargs = {}
        if self.save_run_state:
            # save_every beyond the run: the loop writes only its final
            # checkpoint.
            kwargs = {"save_every": ITERATIONS + 1, "checkpoint_path": self.ckpt}
        start = time.perf_counter()
        result = trainer.train(callbacks=[ReplicaCheck()], **kwargs)
        wall_s = time.perf_counter() - start - init_seconds[0]
        return trainer, result, wall_s, bad

    def check(self, raw) -> JobResult:
        """Check one run's outputs and read its metrics."""
        import numpy as np
        from repro.core.serialization import load_run_state

        trainer, result, wall_s, bad = raw
        corpus = self.corpus
        violations = []
        iters = len(result.iterations)
        if iters != ITERATIONS:
            violations.append(f"ran {iters} of {ITERATIONS} iterations")
        phi = result.phi
        total = int(phi.sum(dtype=np.int64))
        if phi.min() < 0 or total != corpus.num_tokens:
            violations.append(
                f"sum(phi) = {total}, corpus has {corpus.num_tokens} tokens"
            )
        theta = result.theta
        csum = np.concatenate([[0], np.cumsum(theta.data, dtype=np.int64)])
        row_sums = csum[theta.indptr[1:]] - csum[theta.indptr[:-1]]
        if not np.array_equal(row_sums, np.diff(corpus.doc_indptr)):
            violations.append("theta row sums differ from document lengths")
        ll = result.final_log_likelihood
        if ll is None or not math.isfinite(ll):
            violations.append(f"final log-likelihood is {ll}")
        if self.save_run_state:
            saved = load_run_state(self.ckpt)
            if saved.iteration != ITERATIONS or not np.array_equal(saved.phi, phi):
                violations.append("run-state checkpoint does not match the result")
        # A wrong final model fails every iteration that produced it.
        failed = ITERATIONS if violations else len(bad)
        violations += [
            f"iteration {it}: {v}" for it, found in sorted(bad.items()) for v in found
        ]

        sim_iter = [float(it.sim_seconds) for it in result.iterations]
        # An iteration's service time is the part spent on the GPUs: its
        # simulated time less the inter-node network leg.
        service = [
            float(it.sim_seconds - it.network_seconds) for it in result.iterations
        ]
        counters = _counters(trainer.registry)
        layers = {
            "kernels.theta_entries": counters.get("sampler_theta_entries_total", 0.0),
            "kernels.p1_fraction": (
                counters.get("sampler_p1_draws_total", 0.0)
                / counters["sampler_tokens_total"]
            ),
            "comm.sync_bytes_per_iter": counters.get("sync_bytes_total", 0.0) / iters,
            "cluster.internode_bytes_per_iter": (
                counters.get("internode_sync_bytes_total", 0.0) / iters
            ),
            "cluster.network_s_per_iter": float(
                np.mean([it.network_seconds for it in result.iterations])
            ),
            "cluster.internode_stall_s": counters.get(
                "internode_stall_seconds_total", 0.0
            ),
        }
        for kind in SIM_KINDS:
            layers[f"sim.share.{kind}"] = float(result.breakdown.get(kind, 0.0))
        metrics = {
            "wall_tokens_per_s": corpus.num_tokens * iters / wall_s,
            "sim_tokens_per_s": float(result.avg_tokens_per_sec),
            "sim_latency_p50_s": float(statistics.median(sim_iter)),
            # Five iterations leave no percentile with ten samples
            # beyond it; the tail of a training job is its slowest step.
            "sim_latency_tail_s": max(sim_iter),
            "sim_service_p50_s": float(statistics.median(service)),
            "sim_service_tail_s": max(service),
            "neg_ll_per_token": -float(ll) if ll is not None else math.nan,
        }
        exact = {
            **{k: v for k, v in metrics.items() if k != "wall_tokens_per_s"},
            **layers,
            "counters": counters,
            "breakdown": {k: float(v) for k, v in result.breakdown.items()},
            "sim_seconds": sim_iter,
            "total_sim_seconds": float(result.total_sim_seconds),
        }
        return JobResult(
            wall_s=wall_s, attempted=ITERATIONS, failed=failed,
            violations=violations, metrics=metrics, exact=exact, layers=layers,
        )


class ServeWorkload:
    """InferenceService on SERVE_GPUS V100s with the default config."""

    name = "serve_foldin"
    import_modules = ["repro.serve", "repro.gpusim.platform"]

    def prepare(self, seed: int, workdir: Path) -> None:
        from repro.core import load_model
        from repro.serve import poisson_trace

        self.seed = seed
        self.checkpoint = workdir / f"serve-{seed}.model.npz"
        # Trained in a child process, so this process's peak RSS is the
        # service's, not the set-up training run's.
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--workload", self.name, "--seed", str(seed),
             "--build-checkpoint", str(self.checkpoint)],
            check=True, timeout=170,
        )
        num_words = int(load_model(self.checkpoint).phi.shape[1])
        self.requests = poisson_trace(
            [str(self.checkpoint)], num_words, rate=SERVE_RATE,
            duration=SERVE_TRACE_SECONDS, seed=seed,
        )[:SERVE_REQUESTS]
        if len(self.requests) != SERVE_REQUESTS:
            raise RuntimeError(
                f"trace has {len(self.requests)} requests, need {SERVE_REQUESTS}"
            )

    @staticmethod
    def build_checkpoint(path: Path, seed: int) -> None:
        """Train and save the served K=TOPICS model for *seed*."""
        from repro.core import CuLDA, TrainConfig, save_model
        from repro.corpus.synthetic import pubmed_like
        from repro.gpusim.platform import make_machine

        corpus = pubmed_like(num_tokens=TOKENS, num_topics=TOPICS, seed=seed)
        result = CuLDA(
            corpus, machine=make_machine(PLATFORM, 1),
            config=TrainConfig(
                num_topics=TOPICS, iterations=CHECKPOINT_ITERATIONS, seed=seed
            ),
        ).train()
        save_model(result, path, vocabulary=corpus.vocabulary)

    def build(self):
        from repro.gpusim.platform import make_machine
        from repro.serve import InferenceService, ServiceConfig

        return InferenceService(make_machine(PLATFORM, SERVE_GPUS), ServiceConfig())

    def setup(self) -> None:
        """The set-up ``setup_s`` times: construct the service."""
        self.build()

    def run(self):
        """The timed part: construct the service, then run_trace()."""
        service = self.build()
        start = time.perf_counter()
        report = service.run_trace(self.requests)
        return service, report, time.perf_counter() - start

    def check(self, raw) -> JobResult:
        """Verify one run's report and read its metrics."""
        import numpy as np
        from repro.serve import verify_report

        service, report, wall_s = raw

        violations = verify_report(
            report, self.requests,
            default_iterations=service.config.iterations,
            config=service.kernel_config,
            payload_sample=PAYLOAD_SAMPLE,
        )
        done = [r for r in report.results if r.status == "completed"]
        failed = len(self.requests) - len(done)
        if failed:
            violations.append(f"{failed} request(s) not completed")
        tail = tail_percentile(len(done))
        if tail != 99.0:
            violations.append(f"{len(done)} completions give p{tail}, not p99")
        # Dispatch to completion: the batch's execution on a replica,
        # without the batcher's wait. Latency at this load is mostly that
        # wait (max_wait_seconds), so service time is what shows the
        # simulated kernel cost. Its tail is p95, not p99: the ten
        # requests beyond p99 fall in the first batch of each replica,
        # which also uploads phi, on some seeds and not on others.
        service = [r.completion_time - r.dispatch_time for r in done]
        tokens = sum(r.request.num_tokens for r in done)
        ll = sum(r.log_likelihood_per_token * r.request.num_tokens for r in done)
        registry = report.registry
        batch = registry.get("serve_batch_size")
        metrics = {
            "wall_tokens_per_s": tokens / wall_s,
            "sim_tokens_per_s": float(report.throughput_tokens_per_sec),
            "sim_latency_p50_s": float(report.latency_quantile(0.50)),
            "sim_latency_tail_s": float(report.latency_quantile(0.99)),
            "sim_service_p50_s": float(np.quantile(service, 0.50)),
            "sim_service_tail_s": float(np.quantile(service, 0.95)),
            "neg_ll_per_token": -ll / tokens,
        }
        counters = _counters(registry)
        layers = {
            "kernels.theta_entries": counters.get("sampler_theta_entries_total", 0.0),
            "kernels.p1_fraction": (
                counters.get("sampler_p1_draws_total", 0.0)
                / counters.get("sampler_tokens_total", math.inf)
            ),
            "serve.batch_size_mean": batch.sum() / batch.count(),
            "serve.queue_wait_p99_s": float(
                registry.get("serve_queue_wait_seconds").quantile(0.99)
            ),
            "serve.cache_hit_rate": float(report.cache_hit_rate),
        }
        exact = {
            **{k: v for k, v in metrics.items() if k != "wall_tokens_per_s"},
            **layers,
            "counters": counters,
            "sim_throughput_rps": float(report.throughput_requests_per_sec),
            "latencies": [
                (r.dispatch_time, r.completion_time) for r in report.results
            ],
        }
        return JobResult(
            wall_s=wall_s, attempted=len(self.requests), failed=failed,
            violations=violations, metrics=metrics, exact=exact, layers=layers,
        )


WORKLOADS = {
    "train_1gpu": lambda: TrainWorkload("train_1gpu", 1, 1, save_run_state=False),
    "train_4node": lambda: TrainWorkload(
        "train_4node", NODES, GPUS_PER_NODE, save_run_state=True
    ),
    "serve_foldin": ServeWorkload,
}


def setup_probe(workload_name: str, seed: int, workdir: Path) -> float:
    """Seconds of one cold set-up in this (fresh) process: importing the
    modules the workload uses, then constructing the trainer or service
    and, for training, ``init_state``. Input generation in between is
    excluded. Must run before anything else imports ``repro``.
    """
    import importlib

    if any(m == "repro" or m.startswith("repro.") for m in sys.modules):
        raise RuntimeError("setup probe needs a process without repro imported")
    workload = WORKLOADS[workload_name]()
    start = time.perf_counter()
    for module in workload.import_modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    if isinstance(workload, TrainWorkload):
        workload.prepare(seed, workdir)
    start = time.perf_counter()
    workload.setup()
    return import_s + time.perf_counter() - start
