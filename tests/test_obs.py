"""Tests for the performance observatory: scenario registry,
measurement semantics, snapshots, the comparator/exact-match gate, and
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

BASELINE = Path(__file__).resolve().parents[1] / "BENCH.json"


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

        @reg.scenario("g/alpha", group="g", description="d", tokens=10)
        def _a():
            return {"x": Measurement(1.0)}

        @reg.scenario("g/beta", group="g", description="d", tokens=20)
        def _b():
            return {"x": Measurement(1.0)}

        return reg

    def test_only_substring_filter(self):
        reg = self.make()
        assert [s.name for s in reg.select()] == ["g/alpha", "g/beta"]
        assert [s.name for s in reg.select("beta")] == ["g/beta"]

    def test_duplicate_name_rejected(self):
        reg = self.make()
        with pytest.raises(ValueError, match="already registered"):
            reg.scenario("g/alpha", group="g", description="d")(
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

    def test_committed_baseline_matches_registry(self):
        """BENCH.json holds exactly the registered scenarios, each with
        its current params digest: adding or editing a scenario without
        refreshing the baseline fails here, before any bench run."""
        import repro.obs.scenarios  # noqa: F401

        baseline = load_snapshot(BASELINE)
        assert {
            name: entry["digest"]
            for name, entry in baseline["scenarios"].items()
        } == {name: REGISTRY.get(name).digest for name in REGISTRY.names()}


# ----------------------------------------------------------------------
# Comparator / gate
# ----------------------------------------------------------------------
def snap(metrics, digest="abc", name="train/x", others=()):
    """A snapshot holding scenario *name* with *metrics*, plus one
    scenario per name in *others* with the same metrics."""
    return {
        "schema": SNAPSHOT_SCHEMA,
        "git_sha": "deadbeef",
        "scenarios": {
            n: {
                "group": "train", "description": "d", "digest": digest,
                "params": {}, "metrics": dict(metrics),
            }
            for n in (name, *others)
        },
    }


def exact(value, direction="higher"):
    return Measurement(value, direction=direction).as_dict()


def assert_fails(old, new, verdict, scenario="train/x"):
    """Exactly one row differs: it has *verdict*, fails the gate, and
    the printed table names its scenario and verdict."""
    deltas = compare_snapshots(old, new)
    (failed,) = gate(deltas)
    assert (failed.scenario, failed.verdict) == (scenario, verdict)
    assert all(d.verdict == "ok" for d in deltas if d is not failed)
    row = next(
        line for line in format_deltas(deltas).splitlines()
        if line.strip().startswith(scenario)
    )
    assert verdict in row


class TestCompare:
    def test_identical_snapshots_are_clean(self):
        a = snap({"tps": exact(100.0), "t": exact(0.5, direction="lower")},
                 others=("train/y",))
        deltas = compare_snapshots(a, a)
        assert len(deltas) == 4
        assert {d.verdict for d in deltas} == {"ok"}
        assert gate(deltas) == []

    def test_exact_change_in_gated_direction_regresses(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(90.0)})
        assert_fails(old, new, "regressed")

    def test_exact_improvement_fails_the_gate(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(110.0)})
        assert_fails(old, new, "improved")

    def test_info_drift_fails_the_gate(self):
        old = snap({"ll": exact(-7.5, direction="info")})
        new = snap({"ll": exact(-7.6, direction="info")})
        assert_fails(old, new, "drift")

    @pytest.mark.parametrize("side", ["baseline", "run"])
    def test_metric_on_one_side_fails_the_gate(self, side):
        both = snap({"tps": exact(100.0), "t": exact(0.5)})
        one = snap({"tps": exact(100.0)})
        if side == "baseline":
            assert_fails(both, one, "missing")
        else:
            assert_fails(one, both, "added")

    @pytest.mark.parametrize("side", ["baseline", "run"])
    def test_scenario_on_one_side_fails_the_gate(self, side):
        both = snap({"tps": exact(100.0)}, others=("train/y",))
        one = snap({"tps": exact(100.0)})
        if side == "baseline":
            assert_fails(both, one, "missing", scenario="train/y")
        else:
            assert_fails(one, both, "added", scenario="train/y")

    def test_tiny_float_noise_is_ok(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(100.0 * (1 + 1e-12))})
        (d,) = compare_snapshots(old, new)
        assert d.verdict == "ok"

    def test_digest_mismatch_skips_the_scenario(self):
        """A changed workload is one failing row for the scenario; its
        metrics are not compared one by one."""
        old = snap({"tps": exact(100.0)}, digest="abc")
        new = snap({"tps": exact(50.0)}, digest="xyz")
        (d,) = compare_snapshots(old, new)
        assert d.metric == "*"
        assert "workload" in d.note
        assert_fails(old, new, "digest")

    def test_format_names_the_regressed_scenario(self):
        old = snap({"tps": exact(100.0)})
        new = snap({"tps": exact(90.0)})
        text = format_deltas(compare_snapshots(old, new))
        assert "train/x" in text
        assert "GATE: 1 row(s) differ from the baseline in: train/x" in text

    def test_clean_gate_message(self):
        a = snap({"tps": exact(100.0)})
        text = format_deltas(compare_snapshots(a, a))
        assert "GATE: clean" in text


# ----------------------------------------------------------------------
# Snapshot IO
# ----------------------------------------------------------------------
class TestSnapshotIO:
    def test_write_load_round_trip(self, tmp_path):
        doc = snap({"tps": exact(100.0)})
        path = tmp_path / "BENCH_t.json"
        write_snapshot(doc, path)
        assert load_snapshot(path) == doc

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
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "train/culda_pascal_1gpu" in out
        assert "sync/culda_pascal_4gpu_cpu_gather" in out

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
        assert list(doc["scenarios"]) == ["train/culda_pascal_1gpu"]
        entry = doc["scenarios"]["train/culda_pascal_1gpu"]
        assert entry["metrics"]["tokens_per_sec"]["direction"] == "higher"

    def test_compare_clean_against_self_like_baseline(
        self, snapshot_file, capsys
    ):
        assert main([
            "bench", "--only", "train/culda_pascal_1gpu",
            "--compare", str(snapshot_file),
        ]) == 0
        assert "GATE: clean" in capsys.readouterr().out

    def test_only_compares_the_same_selection_of_the_committed_baseline(
        self, capsys
    ):
        assert main([
            "bench", "--only", "train/culda_pascal_1gpu",
            "--compare", str(BASELINE),
        ]) == 0
        assert "compared 3 metric(s): ok=3" in capsys.readouterr().out

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
