#!/usr/bin/env python3
"""Two-clock benchmark of the CuLDA reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload train_1gpu --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that wraps each layer's entry
points (``spans.py``) and reports per-layer metrics only. The last line
of standard output is one JSON object; the lines before it print every
metric with its unit. The exit code is nonzero when any output check
fails. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("train_1gpu", "train_4node", "serve_foldin")

#: Cold set-ups timed per run, each in a fresh process; setup_s is
#: their median.
SETUP_PROBES = 5

#: name -> unit, reported by every workload with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "wall_tokens_per_s": "tokens/s",
    "sim_tokens_per_s": "tokens/s",
    "sim_latency_p50_s": "s",
    "sim_latency_tail_s": "s",
    "sim_service_p50_s": "s",
    "sim_service_tail_s": "s",
    "neg_ll_per_token": "nat/token",
    "peak_rss_mb": "MB",
}

#: Span names (spans.TARGETS) whose self time is a per-layer metric.
SELF_TIME_LAYERS = (
    "kernels.gibbs_sample_chunk",
    "kernels.accumulate_phi",
    "kernels.recount_theta",
    "likelihood.log_likelihood",
    "inference.infer_documents",
    "serialization.save_run_state",
    "serialization.load_model",
    "engine.init_state",
    "engine.run_iteration",
    "engine.finalize",
    "sched.partition.choose_chunking",
    "sched.schedule.synchronize_model",
    "sched.schedule.upload_chunk",
    "comm.planner.plan_sync",
    "comm.planner.plan_cluster_sync",
    "comm.cluster_collective.allreduce",
    "cluster.paramserver.verify",
    "gpusim.memcpy_h2d",
    "gpusim.synchronize",
    "serve.service.run_trace",
    "serve.scheduler.dispatch",
    "serve.replica.execute",
    "serve.cache.get",
)

#: name -> unit, reported by every workload with --trace 1.
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_LAYERS},
    "kernels.gibbs_sample_chunk.calls": "count",
    "kernels.gibbs_sample_chunk.us_per_call": "us",
    "gpusim.memcpy_h2d.calls": "count",
    "kernels.theta_entries": "count",
    "kernels.p1_fraction": "ratio",
    "comm.sync_bytes_per_iter": "B",
    "cluster.internode_bytes_per_iter": "B",
    "cluster.network_s_per_iter": "s",
    "cluster.internode_stall_s": "s",
    **{f"sim.share.{kind}": "ratio" for kind in (
        "sampling", "update_theta", "update_phi", "sync", "p2p", "h2d", "d2h",
    )},
    "serve.batch_size_mean": "count",
    "serve.queue_wait_p99_s": "s",
    "serve.cache_hit_rate": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

_TRAIN_SPANS = {
    "kernels.gibbs_sample_chunk", "kernels.accumulate_phi",
    "kernels.recount_theta", "likelihood.log_likelihood",
    "engine.init_state", "engine.run_iteration", "engine.finalize",
    "sched.partition.choose_chunking", "sched.schedule.synchronize_model",
    "sched.schedule.upload_chunk", "comm.planner.plan_sync",
    "gpusim.memcpy_h2d", "gpusim.synchronize",
}
#: Wrappers that must record calls on each workload; zero calls means a
#: layer's entry point moved and the trace would silently miss it.
EXPECTED_SPANS = {
    "train_1gpu": _TRAIN_SPANS,
    "train_4node": _TRAIN_SPANS | {
        "serialization.save_run_state", "comm.planner.plan_cluster_sync",
        "comm.cluster_collective.allreduce", "cluster.paramserver.verify",
    },
    "serve_foldin": {
        "kernels.gibbs_sample_chunk", "kernels.recount_theta",
        "inference.infer_documents", "serialization.load_model",
        "gpusim.memcpy_h2d", "serve.service.run_trace",
        "serve.scheduler.dispatch", "serve.replica.execute", "serve.cache.get",
    },
}


def pin_allocator() -> None:
    """Make glibc keep freed memory in the process.

    By default glibc returns every large freed block to the kernel, so
    each kernel call faults its temporaries in afresh. On a shared VM
    that fault cost drifted by 2x within minutes and swamped the host
    timings; with mmap off and trimming at 1 GiB, freed memory is reused
    and host time measures the computation. Other C libraries are left
    alone.
    """
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        print("note: no glibc mallopt; allocator left at its defaults",
              file=sys.stderr)
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4
    if not (mallopt(m_mmap_max, 0) and mallopt(m_trim_threshold, 1 << 30)):
        raise RuntimeError("mallopt rejected the allocator settings")


def _child(*args: str) -> subprocess.CompletedProcess:
    """Run this script in a fresh interpreter and wait for it."""
    return subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        check=True, stdout=subprocess.PIPE, text=True, timeout=170,
    )


def measure_setup(workload: str, seed: int) -> float:
    """Median of SETUP_PROBES cold set-ups, each in a fresh process."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = _child("--setup-probe", "--workload", workload, "--seed", str(seed))
        samples.append(float(out.stdout.splitlines()[-1]))
    return statistics.median(samples)


def exact_mismatches(jobs) -> list[str]:
    """Simulated and count outputs that a same-seed rerun changed."""
    ref = jobs[0].exact
    return [
        f"job {i}: {key} differs from job 0 with the same seed"
        for i, job in enumerate(jobs[1:], 1)
        for key in ref
        if job.exact.get(key) != ref[key]
    ]


def run_job(workload):
    """Run one job and check it, recording the system-CPU seconds of
    its run() in the result."""
    before = resource.getrusage(resource.RUSAGE_SELF).ru_stime
    raw = workload.run()
    sys_s = resource.getrusage(resource.RUSAGE_SELF).ru_stime - before
    job = workload.check(raw)
    job.sys_s = sys_s
    return job


def host_note(jobs) -> str:
    """Each job's host seconds next to its system-CPU seconds. Time the
    kernel spends faulting memory in shows in the second figure."""
    return "per job wall_s / sys_cpu_s: " + ", ".join(
        f"{j.wall_s:.3f}/{j.sys_s:.3f}" for j in jobs
    )


def warm_up(workload):
    """One checked but untimed job. The first job in a process grows
    the heap and fills caches that every later job reuses."""
    return run_job(workload)


def run_untraced(workload, name: str, seed: int, seconds: float):
    setup_s = measure_setup(name, seed)
    warm = warm_up(workload)
    # Peak over the inputs and one job: later jobs only add heap
    # fragmentation, which would tie the figure to the job count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    timed = []
    start = time.perf_counter()
    while len(timed) < 2 or time.perf_counter() - start < seconds:
        timed.append(run_job(workload))
    jobs = [warm, *timed]
    violations = [v for job in jobs for v in job.violations]
    violations += exact_mismatches(jobs)
    metrics = {
        "setup_s": setup_s,
        "wall_tokens_per_s": statistics.median(
            j.metrics["wall_tokens_per_s"] for j in timed
        ),
        **{k: v for k, v in warm.metrics.items() if k != "wall_tokens_per_s"},
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"jobs = 1 warm-up + {len(timed)} timed", host_note(timed)]
    if name == "serve_foldin":
        requests = warm.attempted
        notes += [
            "wall_requests_per_s = "
            f"{statistics.median(requests / j.wall_s for j in timed):.6g} req/s",
            f"sim_throughput_rps = {warm.exact['sim_throughput_rps']:.6g} req/s",
            "sim_latency_tail_s is p99 and sim_service_tail_s p95 of "
            f"{requests} requests",
        ]
    else:
        notes.append(
            "sim_latency_tail_s and sim_service_tail_s are the slowest of "
            f"{warm.attempted} iterations"
        )
    return jobs, metrics, END_TO_END, violations, notes


def run_traced(workload, name: str, seed: int, seconds: float):
    from spans import ROOT, SpanRecorder, install, self_times
    recorder = SpanRecorder(run_id=f"{name}-seed{seed}")
    warm = warm_up(workload)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_job(workload))
        with install(recorder):
            raw = recorder.call(ROOT, workload.run)
        traced.append(workload.check(raw))
    recorder.write_jsonl(OUT / f"{name}-seed{seed}.spans.jsonl")

    jobs = [warm, *untraced, *traced]
    violations = [v for job in jobs for v in job.violations]
    violations += exact_mismatches(jobs)
    selfs = self_times(recorder.spans)
    n = len(traced)
    missing = sorted(s for s in EXPECTED_SPANS[name] if s not in selfs)
    if missing:
        violations.append(f"wrappers recorded no calls: {', '.join(missing)}")
    roots = [s for s in recorder.spans if s.name == ROOT]
    metrics = {f"{s}.self_s": selfs.get(s, (0.0, 0))[0] / n for s in SELF_TIME_LAYERS}
    kernel_s, kernel_calls = selfs.get("kernels.gibbs_sample_chunk", (0.0, 0))
    metrics["kernels.gibbs_sample_chunk.calls"] = kernel_calls / n
    metrics["kernels.gibbs_sample_chunk.us_per_call"] = (
        1e6 * kernel_s / kernel_calls if kernel_calls else 0.0
    )
    metrics["gpusim.memcpy_h2d.calls"] = selfs.get("gpusim.memcpy_h2d", (0.0, 0))[1] / n
    for key in PER_LAYER:
        if key not in metrics:
            metrics[key] = traced[0].layers.get(key, 0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(j.metrics["wall_tokens_per_s"] for j in traced)
        / statistics.median(j.metrics["wall_tokens_per_s"] for j in untraced)
    )
    metrics["trace.unattributed_share"] = (
        selfs[ROOT][0] / sum(s.duration for s in roots)
    )
    top = max(SELF_TIME_LAYERS, key=lambda s: metrics[f"{s}.self_s"])
    notes = [
        f"jobs = 1 warm-up + {len(untraced)} untraced + {n} traced",
        f"largest self time: {top}",
    ]
    return jobs, metrics, PER_LAYER, violations, notes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its metrics and the JSON result line;
    True when every output check passed."""
    from stats import failed_fraction
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[name]()
    workload.prepare(seed, OUT)
    runner = run_traced if trace else run_untraced
    jobs, metrics, units, violations, notes = runner(workload, name, seed, seconds)
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    if violations and failed == 0:
        failed = attempted  # a check outside any one operation failed
    print(f"# {name} seed={seed} trace={int(trace)}")
    for key, unit in units.items():
        print(f"{key} = {metrics[key]:.6g} {unit}")
    print(f"failed_fraction = {failed_fraction(attempted, failed):.6g} "
          f"({failed} of {attempted} operations)")
    for note in notes:
        print(f"# {note}")
    for v in violations:
        print(f"VIOLATION: {v}", file=sys.stderr)
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return not violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--build-checkpoint", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # One process, one BLAS/OpenMP thread, so host timings do not depend
    # on how many cores are free. Set before numpy is first imported;
    # child processes inherit it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pin_allocator()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is not at {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.build_checkpoint:
        from workloads import ServeWorkload

        ServeWorkload.build_checkpoint(Path(args.build_checkpoint), args.seed)
        return 0
    if args.setup_probe:
        from workloads import setup_probe

        print(setup_probe(args.workload, args.seed, OUT))
        return 0
    if args.workload == "all":
        # One process per workload, so peak RSS stays per workload.
        codes = [
            subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                timeout=900,
            ).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)
    ok = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
