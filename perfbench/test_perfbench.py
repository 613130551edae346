"""Tests of the benchmark's own logic: self time, the tail-percentile
rule, failed_fraction, the wrappers, and BENCHMARK.json agreement.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import ROOT, TARGETS, Span, SpanRecorder, install, self_times  # noqa: E402
from stats import failed_fraction, quartile_spread, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, ROOT, 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "b", 2.0, 3.0, 1, "r"),
        Span(3, "a", 5.0, 6.0, 0, "r"),
        Span(4, "b", 7.0, 7.5, 0, "r"),
    ]
    got = self_times(spans)
    assert got[ROOT] == (pytest.approx(10.0 - 3.0 - 1.0 - 0.5), 1)
    assert got["a"] == (pytest.approx(2.0 + 1.0), 2)
    assert got["b"] == (pytest.approx(1.5), 2)
    assert sum(s for s, _ in got.values()) == pytest.approx(10.0)


def test_recorder_nests_spans_and_self_times_sum_to_the_root():
    rec = SpanRecorder("run-1")
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)))
    assert rec.call(ROOT, outer, 1) == 3
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,), (out,) = by_name[ROOT], by_name["outer"]
    assert root.parent is None and out.parent == root.span_id
    assert [s.parent for s in by_name["inner"]] == [out.span_id] * 2
    assert {s.run_id for s in rec.spans} == {"run-1"}
    total = sum(s for s, _ in self_times(rec.spans).values())
    assert total == pytest.approx(root.duration)


def test_recorder_closes_the_span_when_the_call_raises():
    rec = SpanRecorder("r")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.call("boom", boom)
    assert [s.name for s in rec.spans] == ["boom"]
    assert rec.call("after", lambda: 1) == 1
    assert rec.spans[-1].parent is None


@pytest.mark.parametrize("samples, level", [
    (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
    (10_000, 99.9), (20, 50.0), (19, None), (0, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(samples, level):
    assert tail_percentile(samples) == level


def test_failed_fraction():
    assert failed_fraction(10, 0) == 0.0
    assert failed_fraction(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_fraction(0, 0)
    with pytest.raises(ValueError):
        failed_fraction(3, 4)


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5
    )


def test_install_wraps_every_binding_site_and_restores_them():
    import repro.core
    import repro.core.inference
    import repro.core.kernels
    import repro.sched.schedule
    import repro.serve.cache
    from repro.core.serialization import load_model

    sampler = repro.core.kernels.gibbs_sample_chunk
    rec = SpanRecorder("r")
    with install(rec):
        assert repro.core.inference.gibbs_sample_chunk is not sampler
        assert (repro.sched.schedule.gibbs_sample_chunk
                is repro.core.inference.gibbs_sample_chunk)
        # ModelCache binds load_model as a default argument.
        assert load_model not in repro.serve.cache.ModelCache.__init__.__defaults__
        assert repro.core.load_model is not load_model
    assert repro.core.inference.gibbs_sample_chunk is sampler
    assert repro.sched.schedule.gibbs_sample_chunk is sampler
    assert load_model in repro.serve.cache.ModelCache.__init__.__defaults__
    assert repro.core.load_model is load_model


def test_install_fails_loudly_on_a_renamed_target():
    import repro.core.culda

    before = repro.core.culda.CuLDA.run_iteration
    targets = (("engine.run_iteration", "repro.core.culda", "CuLDA.run_iteration"),
               ("gone", "repro.core.kernels", "no_such_kernel"))
    with pytest.raises(LookupError):
        with install(SpanRecorder("r"), targets):
            pass
    assert repro.core.culda.CuLDA.run_iteration is before


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.EXPECTED_SPANS)
    assert set(run.WORKLOAD_NAMES) == set(run.EXPECTED_SPANS) == set(WORKLOADS)
    span_names = {name for name, _, _ in TARGETS}
    assert set(run.SELF_TIME_LAYERS) == span_names
    for expected in run.EXPECTED_SPANS.values():
        assert expected <= span_names
