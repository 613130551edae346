"""Host-time span recorder for the traced benchmark run.

The traced run wraps the public entry point of each layer of the
``repro`` package and records one span per call: name, start, end, the
id of the enclosing span and the run id, kept in memory and written out
as JSON lines when the run ends. A layer's *self time* is its spans'
duration minus the part covered by their direct child spans, so the
per-layer self times of one job add up to the job's root span.

A callable is wrapped at **every module that binds it by name**:
``gibbs_sample_chunk`` lives in ``repro.core.kernels`` but the trainer
calls it through ``repro.sched.schedule`` and fold-in through
``repro.core.inference``; patching only the defining module would miss
both. Methods are wrapped on each class that defines them, so an
override (``DistributedCuLDA.init_state``) and the base method it may
call (``CuLDA.init_state``) are both spanned.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "ROOT",
    "Span",
    "SpanRecorder",
    "TARGETS",
    "install",
    "self_times",
]

#: (span name, defining module, attribute). ``Class.method`` attributes
#: are patched on that class; plain functions at every binding site.
#: Several targets may share a span name when they are one layer's
#: entry points.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("kernels.gibbs_sample_chunk", "repro.core.kernels", "gibbs_sample_chunk"),
    ("kernels.accumulate_phi", "repro.core.kernels", "accumulate_phi"),
    ("kernels.recount_theta", "repro.core.kernels", "recount_theta"),
    ("likelihood.log_likelihood", "repro.core.likelihood", "word_log_likelihood"),
    ("likelihood.log_likelihood", "repro.core.likelihood", "_doc_log_likelihood"),
    ("inference.infer_documents", "repro.core.inference", "infer_documents"),
    ("serialization.save_run_state", "repro.core.serialization", "save_run_state"),
    ("serialization.load_model", "repro.core.serialization", "load_model"),
    ("engine.init_state", "repro.core.culda", "CuLDA.init_state"),
    ("engine.init_state", "repro.core.distributed", "DistributedCuLDA.init_state"),
    ("engine.run_iteration", "repro.core.culda", "CuLDA.run_iteration"),
    ("engine.run_iteration", "repro.core.distributed", "DistributedCuLDA.run_iteration"),
    ("engine.finalize", "repro.core.culda", "CuLDA.finalize"),
    ("engine.finalize", "repro.core.distributed", "DistributedCuLDA.finalize"),
    ("sched.partition.choose_chunking", "repro.sched.partition", "choose_chunking"),
    ("sched.schedule.synchronize_model", "repro.sched.schedule", "synchronize_model"),
    ("sched.schedule.upload_chunk", "repro.sched.schedule", "upload_chunk"),
    ("comm.planner.plan_sync", "repro.comm.planner", "plan_sync"),
    ("comm.planner.plan_cluster_sync", "repro.comm.planner", "plan_cluster_sync"),
    ("comm.cluster_collective.allreduce", "repro.comm.cluster", "EthRingCollective.allreduce"),
    ("comm.cluster_collective.allreduce", "repro.comm.cluster", "ParamServerCollective.allreduce"),
    ("cluster.paramserver.verify", "repro.cluster.paramserver", "ShardedParameterServer.verify"),
    ("gpusim.memcpy_h2d", "repro.gpusim.platform", "Machine.memcpy_h2d"),
    ("gpusim.synchronize", "repro.gpusim.platform", "Machine.synchronize"),
    ("serve.service.run_trace", "repro.serve.service", "InferenceService.run_trace"),
    ("serve.scheduler.dispatch", "repro.serve.scheduler", "ReplicaScheduler.dispatch"),
    ("serve.replica.execute", "repro.serve.replica", "PhiReplica.execute"),
    ("serve.cache.get", "repro.serve.cache", "ModelCache.get"),
)

ROOT = "root"


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans of one benchmark run, in memory, in completion order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        """*fn* recording one span named *name* per call."""
        stack, spans, run_id = self._stack, self.spans, self.run_id
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, run_id))

        return spanned

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` under a span named *name*."""
        return self.wrap(name, fn)(*args, **kwargs)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.span_id, "name": s.name, "start": s.start,
                    "end": s.end, "parent": s.parent, "run": s.run_id,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """``name -> (total self seconds, calls)``.

    A span's self time is its duration minus the summed durations of
    the spans whose parent it is.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + s.duration - covered[s.span_id], calls + 1)
    return out


def _resolve(module: str, attr: str):
    """(owner, attribute name, original) for a ``Class.method`` target,
    or (None, name, original) for a module-level function."""
    mod = importlib.import_module(module)
    try:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            return cls, meth, vars(cls)[meth]
        return None, attr, getattr(mod, attr)
    except (AttributeError, KeyError) as exc:
        raise LookupError(f"{module}.{attr} no longer exists") from exc


def _binding_sites(fn) -> list[tuple[object, str, object]]:
    """Every ``(owner, attribute, value)`` in the ``repro`` package
    through which *fn* is reached: module globals that name it, and
    default-argument tuples of the package's functions and methods
    (``ModelCache(loader=load_model)`` binds its loader that way)."""
    sites = []
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                sites.append((mod, key, value))
            functions = [value]
            if isinstance(value, type) and value.__module__ == mod.__name__:
                functions = list(vars(value).values())
            for f in functions:
                defaults = getattr(f, "__defaults__", None)
                if isinstance(defaults, tuple) and any(d is fn for d in defaults):
                    sites.append((f, "__defaults__", defaults))
    return sites


def _rebind(value, original, wrapped):
    """*value* with *original* replaced by *wrapped*."""
    if value is original:
        return wrapped
    return tuple(wrapped if d is original else d for d in value)


@contextmanager
def install(recorder: SpanRecorder, targets=TARGETS):
    """Wrap every *targets* entry for *recorder* while the block runs.

    Raises :class:`LookupError` when a target no longer exists, so an
    upstream rename fails the traced run instead of zeroing a layer.
    Every patch is undone on exit.
    """
    patches: list[tuple[object, str, object]] = []
    try:
        for name, module, attr in targets:
            owner, key, original = _resolve(module, attr)
            wrapped = recorder.wrap(name, original)
            if owner is not None:
                sites = [(owner, key, original)]
            else:
                sites = _binding_sites(original)
                if not sites:
                    raise LookupError(f"{module}.{attr} is bound nowhere")
            for site, site_key, value in sites:
                patches.append((site, site_key, value))
                setattr(site, site_key, _rebind(value, original, wrapped))
        yield
    finally:
        for site, site_key, value in reversed(patches):
            setattr(site, site_key, value)
