"""Property-based tests for the serving building blocks.

Hypothesis drives random request streams through the micro-batcher,
random access patterns through the LRU model cache, and small random
traces through the full service (with a stub model loader, so no
training or disk is involved). The properties are the subsystem's
documented invariants:

- batches never exceed ``max_batch_size`` and never mix models;
- no request is held past ``max_wait_seconds`` for batching reasons;
- requests are FIFO within a model;
- the cache never holds more than ``capacity`` models, and a hit
  returns the exact object (bit-identical φ) a cold load produced;
- the service conserves requests (every submitted id gets exactly one
  terminal status) under any policy.
"""

from __future__ import annotations

import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import LDAHyperParams
from repro.gpusim.platform import make_machine
from repro.serve import (
    BatchPolicy,
    InferenceRequest,
    InferenceService,
    MicroBatcher,
    ModelCache,
    ServiceConfig,
)

MODELS = ("m0", "m1", "m2")


def _request(i: int, arrival: float, model: str) -> InferenceRequest:
    return InferenceRequest(i, ((i % 5, (i * 3) % 5),), arrival, model, seed=i)


@st.composite
def request_streams(draw):
    """A time-ordered stream of requests over a few models."""
    gaps = draw(st.lists(
        st.floats(min_value=0.0, max_value=5e-3, allow_nan=False),
        min_size=1, max_size=40,
    ))
    models = draw(st.lists(
        st.sampled_from(MODELS), min_size=len(gaps), max_size=len(gaps),
    ))
    t, stream = 0.0, []
    for i, (gap, model) in enumerate(zip(gaps, models)):
        t += gap
        stream.append(_request(i, t, model))
    return stream


@st.composite
def policies(draw):
    return BatchPolicy(
        max_batch_size=draw(st.integers(min_value=1, max_value=6)),
        max_wait_seconds=draw(st.floats(min_value=0.0, max_value=2e-3,
                                        allow_nan=False)),
    )


def drive_batcher(stream, policy):
    """Feed *stream* through a MicroBatcher the way the service does:
    pop on full queues at arrivals, pop on due times between arrivals.
    Returns (batches, pop_times)."""
    batcher = MicroBatcher(policy)
    batches, pop_times = [], []
    i = 0
    while i < len(stream) or batcher.depth():
        next_arrival = stream[i].arrival_time if i < len(stream) else None
        due = batcher.next_due()
        if next_arrival is not None and (due is None or next_arrival <= due[1]):
            request = stream[i]
            i += 1
            batcher.enqueue(request)
            while batcher.ready(request.model_key):
                batches.append(batcher.pop_batch(request.model_key))
                pop_times.append(request.arrival_time)
        else:
            batches.append(batcher.pop_batch(due[0]))
            pop_times.append(due[1])
    return batches, pop_times


class TestBatcherProperties:
    @given(stream=request_streams(), policy=policies())
    @settings(max_examples=60, deadline=None)
    def test_batch_size_and_model_purity(self, stream, policy):
        batches, _ = drive_batcher(stream, policy)
        for batch in batches:
            assert 1 <= len(batch) <= policy.max_batch_size
            assert len({r.model_key for r in batch}) == 1

    @given(stream=request_streams(), policy=policies())
    @settings(max_examples=60, deadline=None)
    def test_no_request_waits_past_bound(self, stream, policy):
        batches, pop_times = drive_batcher(stream, policy)
        for batch, popped_at in zip(batches, pop_times):
            for request in batch:
                wait = popped_at - request.arrival_time
                assert wait <= policy.max_wait_seconds + 1e-12

    @given(stream=request_streams(), policy=policies())
    @settings(max_examples=60, deadline=None)
    def test_fifo_within_model_and_conservation(self, stream, policy):
        batches, _ = drive_batcher(stream, policy)
        popped = [r for batch in batches for r in batch]
        assert sorted(r.request_id for r in popped) == [
            r.request_id for r in stream
        ]
        for model in MODELS:
            order = [r.request_id for r in popped if r.model_key == model]
            assert order == sorted(order)


def _fake_loader_factory(loads: list[str]):
    """A loader producing a deterministic fake model per path, with a
    call log so cold loads are observable."""
    def load(path: str) -> SimpleNamespace:
        loads.append(path)
        rng = np.random.default_rng(zlib.crc32(path.encode()))
        return SimpleNamespace(
            phi=rng.integers(0, 50, size=(4, 8)),
            hyper=LDAHyperParams(num_topics=4),
        )
    return load


class TestCacheProperties:
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        accesses=st.lists(st.sampled_from(MODELS), min_size=1, max_size=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_capacity(self, capacity, accesses):
        loads: list[str] = []
        cache = ModelCache(capacity, loader=_fake_loader_factory(loads),
                           digest_fn=lambda p: f"digest:{p}")
        for path in accesses:
            cache.get(path)
            assert len(cache) <= capacity
        assert cache.hits + cache.misses == len(accesses)
        assert cache.misses == len(loads)
        assert cache.evictions == len(loads) - len(cache)

    @given(
        capacity=st.integers(min_value=1, max_value=3),
        accesses=st.lists(st.sampled_from(MODELS), min_size=2, max_size=50),
    )
    @settings(max_examples=80, deadline=None)
    def test_hits_bit_identical_to_cold_load(self, capacity, accesses):
        loads: list[str] = []
        loader = _fake_loader_factory(loads)
        cache = ModelCache(capacity, loader=loader,
                           digest_fn=lambda p: f"digest:{p}")
        cold = {path: loader(path) for path in MODELS}
        for path in accesses:
            model, digest, hit = cache.get(path)
            assert np.array_equal(model.phi, cold[path].phi)
            if hit:
                # A hit is the very object the cold load produced.
                assert digest in cache.resident_digests()

    @given(accesses=st.lists(st.sampled_from(MODELS), min_size=1,
                             max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_lru_evicts_least_recent(self, accesses):
        cache = ModelCache(2, loader=_fake_loader_factory([]),
                           digest_fn=lambda p: f"digest:{p}")
        recency: list[str] = []
        for path in accesses:
            cache.get(path)
            if path in recency:
                recency.remove(path)
            recency.append(path)
            assert cache.resident_digests() == [
                f"digest:{p}" for p in recency[-cache.capacity:]
            ]

    def test_rewritten_checkpoint_is_a_new_model(self, tmp_path):
        """Digest is recomputed per access: rewriting a file under the
        same path misses rather than serving stale bytes."""
        from repro.core.serialization import save_model

        path = tmp_path / "model.npz"
        hyper = LDAHyperParams(num_topics=4)
        phi = np.arange(32, dtype=np.int32).reshape(4, 8)

        def write(phi):
            save_model(
                SimpleNamespace(phi=phi, hyper=hyper, corpus_name="c"), path
            )

        write(phi)
        cache = ModelCache(2)
        _, d1, hit1 = cache.get(path)
        _, d1b, hit1b = cache.get(path)
        assert (hit1, hit1b) == (False, True) and d1 == d1b
        write(phi + 1)
        model, d2, hit2 = cache.get(path)
        assert not hit2 and d2 != d1
        assert np.array_equal(model.phi, phi + 1)

    def test_digest_needs_a_checksummed_archive(self, tmp_path):
        from repro.serve import checkpoint_digest

        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"not an archive")
        with pytest.raises(ValueError, match="junk.npz"):
            checkpoint_digest(junk)
        unsigned = tmp_path / "unsigned.npz"
        np.savez(unsigned, phi=np.zeros((2, 2)))
        with pytest.raises(ValueError, match="unsigned.npz.*no checksum"):
            checkpoint_digest(unsigned)


class TestServiceConservation:
    """End-to-end property: every submitted id gets exactly one
    terminal status, under any policy, with a stub loader."""

    @given(
        stream=request_streams(),
        max_batch=st.integers(min_value=1, max_value=5),
        max_queue=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=15, deadline=None)
    def test_conservation(self, stream, max_batch, max_queue):
        service = InferenceService(
            make_machine("pascal", 2),
            ServiceConfig(max_batch_size=max_batch, max_wait_seconds=1e-3,
                          max_queue=max_queue, iterations=1),
            loader=_fake_loader_factory([]),
            digest_fn=lambda p: f"digest:{p}",
        )
        report = service.run_trace(stream)
        assert report.submitted == len(stream)
        assert [r.request.request_id for r in report.results] == sorted(
            r.request_id for r in stream
        )
        assert report.submitted == (
            report.count("completed") + report.count("rejected")
            + report.count("deadline_exceeded") + report.count("failed")
        )
        assert report.count("failed") == 0
        high_water = report.registry.gauge(
            "serve_queue_depth_high_water"
        ).value()
        assert high_water <= max_queue

    def test_duplicate_request_ids_rejected(self):
        service = InferenceService(
            make_machine("pascal", 1),
            loader=_fake_loader_factory([]),
            digest_fn=lambda p: f"digest:{p}",
        )
        dup = [_request(1, 0.0, "m0"), _request(1, 0.001, "m0")]
        with pytest.raises(ValueError, match="unique"):
            service.run_trace(dup)
