"""Benchmark snapshots: run the suite, serialize, load, pretty-print.

One snapshot is one JSON document with schema ``repro-bench/1``. The
committed baseline is ``BENCH.json`` at the repo root::

    {
      "schema": "repro-bench/1",
      "git_sha": "…",             # HEAD at measurement time
      "scenarios": {
        "<name>": {
          "group": "…", "description": "…", "digest": "…",
          "params": {…},          # the exact workload spec
          "metrics": {
            "<metric>": {"value": …, "unit": "…",
                         "direction": "higher"|"lower"|"info"}
          }
        }
      }
    }

Every metric is deterministic, so snapshots compare across machines.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Callable

from repro.obs.registry import REGISTRY

__all__ = [
    "SNAPSHOT_SCHEMA",
    "git_sha",
    "run_suite",
    "write_snapshot",
    "load_snapshot",
    "format_snapshot",
]

SNAPSHOT_SCHEMA = "repro-bench/1"


def git_sha() -> str:
    """HEAD's commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_suite(
    only: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Run every scenario (or those whose name contains *only*) and
    return a snapshot dict."""
    # Populate the registry.
    import repro.obs.scenarios  # noqa: F401

    scenarios = REGISTRY.select(only)
    if not scenarios:
        raise ValueError(f"no scenarios match only={only!r}")
    snapshot: dict = {
        "schema": SNAPSHOT_SCHEMA,
        "git_sha": git_sha(),
        "scenarios": {},
    }
    for scenario in scenarios:
        if progress is not None:
            progress(f"running {scenario.name} …")
        metrics = scenario.run()
        snapshot["scenarios"][scenario.name] = {
            "group": scenario.group,
            "description": scenario.description,
            "digest": scenario.digest,
            "params": dict(scenario.params),
            "metrics": {k: m.as_dict() for k, m in sorted(metrics.items())},
        }
    return snapshot


def write_snapshot(snapshot: dict, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_snapshot(path: str | Path) -> dict:
    with open(path) as fh:
        snapshot = json.load(fh)
    schema = snapshot.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r} is not {SNAPSHOT_SCHEMA!r} "
            "(snapshot from an incompatible version?)"
        )
    if not isinstance(snapshot.get("scenarios"), dict):
        raise ValueError(f"{path}: snapshot carries no scenarios")
    return snapshot


def _fmt_value(value: float, unit: str) -> str:
    if unit in ("tokens/s", "bytes") and abs(value) >= 1e6:
        return f"{value / 1e6:,.2f} M{unit.replace('bytes', 'B')}"
    if unit == "s" and abs(value) < 1.0:
        return f"{value * 1e3:.4g} ms"
    return f"{value:,.6g} {unit}".rstrip()


def format_snapshot(snapshot: dict) -> str:
    """Human-readable per-scenario metric table."""
    lines = [f"benchmark snapshot — git {snapshot['git_sha'][:12]}"]
    for name, entry in sorted(snapshot["scenarios"].items()):
        lines.append("")
        lines.append(f"{name}  [{entry['digest']}]")
        lines.append(f"  {entry['description']}")
        for metric, m in sorted(entry["metrics"].items()):
            lines.append(
                f"    {metric:<28s} {_fmt_value(m['value'], m['unit']):>18s}"
                f"  [{m['direction']}]"
            )
    return "\n".join(lines)
