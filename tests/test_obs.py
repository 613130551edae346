"""Tests for the performance observatory: scenario registry,
measurement semantics, snapshots, the comparator/regression gate, and
the `repro-lda bench` CLI."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    REGISTRY,
    BenchRegistry,
    Measurement,
    compare_snapshots,
    format_deltas,
    format_snapshot,
    gate,
    load_snapshot,
    params_digest,
    write_snapshot,
)
from repro.obs.snapshot import SNAPSHOT_SCHEMA


# ----------------------------------------------------------------------
# Measurement + digest
# ----------------------------------------------------------------------
class TestMeasurement:
    def test_validates_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Measurement(1.0, direction="sideways")

    def test_round_trip(self):
        m = Measurement(3.5, unit="tokens/s", direction="higher")
        assert Measurement.from_dict(m.as_dict()) == m


class TestParamsDigest:
    def test_key_order_does_not_matter(self):
        assert params_digest({"a": 1, "b": 2}) == params_digest(
            {"b": 2, "a": 1}
        )

    def test_value_changes_the_digest(self):
        assert params_digest({"tokens": 20_000}) != params_digest(
            {"tokens": 20_001}
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestBenchRegistry:
    def make(self):
        reg = BenchRegistry()

        @reg.scenario("g/quick_one", group="g", description="d",
                      tier="quick", tokens=10)
        def _q():
            return {"x": Measurement(1.0)}

        @reg.scenario("g/full_one", group="g", description="d",
                      tier="full", tokens=20)
        def _f():
            return {"x": Measurement(1.0)}

        return reg

    def test_quick_tier_subsets_full(self):
        reg = self.make()
        assert [s.name for s in reg.select("quick")] == ["g/quick_one"]
        assert [s.name for s in reg.select("full")] == [
            "g/full_one", "g/quick_one",
        ]

    def test_only_substring_filter(self):
        reg = self.make()
        assert [s.name for s in reg.select("full", "full")] == ["g/full_one"]

    def test_duplicate_name_rejected(self):
        reg = self.make()
        with pytest.raises(ValueError, match="already registered"):
            reg.scenario("g/quick_one", group="g", description="d")(
                lambda: {}
            )

    def test_run_type_checks_measurements(self):
        reg = BenchRegistry()

        @reg.scenario("g/bad", group="g", description="d")
        def _bad():
            return {"x": 1.0}

        with pytest.raises(TypeError, match="Measurement"):
            reg.get("g/bad").run()

    def test_curated_suite_registers(self):
        import repro.obs.scenarios  # noqa: F401

        names = REGISTRY.names()
        assert "train/culda_pascal_1gpu" in names
        assert "serve/chaos_hedge_pascal_4gpu" in names
        assert "sync/culda_pascal_4gpu_tree" in names
        # The CI tier is a strict subset.
        quick = {s.name for s in REGISTRY.select("quick")}
        full = {s.name for s in REGISTRY.select("full")}
        assert quick < full


# ----------------------------------------------------------------------
# Comparator / gate
# ----------------------------------------------------------------------
def snap(metrics, digest="abc", name="train/x"):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "git_sha": "deadbeef",
        "tier": "quick",
        "scenarios": {
            name: {
                "group": "train", "description": "d", "digest": digest,
                "params": {}, "metrics": metrics,
            }
        },
    }


def exact(value, direction="higher"):
    return Measurement(value, direction=direction).as_dict()


class TestCompare:
    def test_identical_snapshots_are_clean(self):
        a = snap({"tps": exact(100.0), "t": exact(0.5, direction="lower")})
        deltas = compare_snapshots(a, a)
        assert {d.verdict for d in deltas} == {"ok"}
        assert gate(deltas) == []

    def test_exact_change_in_gated_direction_regresses(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(90.0)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "regressed"
        assert gate([d]) == [d]

    def test_exact_improvement_is_flagged_not_gated(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(110.0)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "improved"
        assert gate([d]) == []

    def test_info_direction_drifts_instead_of_gating(self):
        old = snap({"ll": exact(-7.5, direction="info")})
        new = snap({"ll": exact(-7.6, direction="info")})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "drift"
        assert gate([d]) == []

    def test_tiny_float_noise_is_ok(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(100.0 * (1 + 1e-12))})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "ok"

    def test_exact_still_gated_across_machines(self):
        """A baseline written before snapshots dropped the machine block
        (BENCH_10 and earlier) still gates a fresh run's exact metrics."""
        old = snap({"tps": exact(100.0)})
        old["machine"] = {"fingerprint": "m1"}
        new = snap({"tps": exact(90.0)})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "regressed"

    def test_digest_mismatch_skips_the_scenario(self):
        old = snap({"tps": exact(100.0)}, digest="abc")
        new = snap({"tps": exact(50.0)}, digest="xyz")
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "skipped"
        assert "workload" in d.note

    def test_format_names_the_regressed_scenario(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(90.0)})
        text = format_deltas(compare_snapshots(old, new))
        assert "train/x" in text
        assert "GATE: 1 regression(s)" in text

    def test_clean_gate_message(self):
        a = snap({"tps": exact(100.0)})
        text = format_deltas(compare_snapshots(a, a))
        assert "no regressions" in text


# ----------------------------------------------------------------------
# Snapshot IO
# ----------------------------------------------------------------------
class TestSnapshotIO:
    def test_write_load_round_trip(self, tmp_path):
        doc = snap({"tps": exact(100.0)})
        path = tmp_path / "BENCH_t.json"
        write_snapshot(doc, path)
        assert load_snapshot(path) == doc
        # Snapshots written with wall-clock metrics and a machine block
        # (up to BENCH_10) still load, and every metric still parses.
        legacy = load_snapshot(
            Path(__file__).resolve().parents[1] / "BENCH_10.json"
        )
        for entry in legacy["scenarios"].values():
            for record in entry["metrics"].values():
                Measurement.from_dict(record)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/1", "scenarios": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    def test_format_snapshot_lists_metrics(self):
        text = format_snapshot(snap({"tps": exact(100.0)}))
        assert "train/x" in text
        assert "tps" in text


# ----------------------------------------------------------------------
# CLI (`repro-lda bench`)
# ----------------------------------------------------------------------
class TestBenchCLI:
    def test_list_names_scenarios(self, capsys):
        assert main(["bench", "--list", "--tier", "full"]) == 0
        out = capsys.readouterr().out
        assert "train/culda_pascal_1gpu" in out
        assert "sync/culda_pascal_4gpu_cpu_gather" in out  # full tier only

    def test_empty_selection_fails(self, capsys):
        assert main(["bench", "--only", "no-such-scenario"]) == 2

    @pytest.fixture(scope="class")
    def snapshot_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("bench") / "BENCH_t.json"
        assert main([
            "bench", "--only", "train/culda_pascal_1gpu", "--out", str(path),
        ]) == 0
        return path

    def test_out_writes_a_valid_snapshot(self, snapshot_file):
        doc = load_snapshot(snapshot_file)
        assert doc["tier"] == "quick"
        entry = doc["scenarios"]["train/culda_pascal_1gpu"]
        assert entry["metrics"]["tokens_per_sec"]["direction"] == "higher"

    def test_compare_clean_against_self_like_baseline(
        self, snapshot_file, capsys
    ):
        assert main([
            "bench", "--only", "train/culda_pascal_1gpu",
            "--compare", str(snapshot_file),
        ]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_compare_gates_on_perturbed_baseline(
        self, snapshot_file, tmp_path, capsys
    ):
        doc = load_snapshot(snapshot_file)
        metric = doc["scenarios"]["train/culda_pascal_1gpu"]["metrics"][
            "tokens_per_sec"
        ]
        metric["value"] *= 2.0  # baseline "was" twice as fast
        perturbed = tmp_path / "BENCH_perturbed.json"
        write_snapshot(doc, perturbed)
        assert main([
            "bench", "--only", "train/culda_pascal_1gpu",
            "--compare", str(perturbed),
        ]) == 1
        out = capsys.readouterr().out
        assert "train/culda_pascal_1gpu" in out
        assert "regressed" in out
