"""Snapshot comparison and the CI regression gate.

:func:`compare_snapshots` walks every scenario/metric pair two
snapshots share and classifies each into a verdict:

- ``ok`` — unchanged.
- ``regressed`` — worse than the baseline. **Gates.**
- ``improved`` — better. Not a failure, but the delta table flags it:
  refresh the committed snapshot so the new level becomes the baseline.
- ``drift`` — an ``info``-direction metric changed (e.g. a likelihood
  value after a numerics change). Reported, not gated.
- ``skipped`` — a scenario whose params digest changed (different
  workload = new baseline, not a comparison).

Every metric is simulated-clock or otherwise deterministic, so it must
be **bit-stable**: values are compared with a relative epsilon of 1e-9
— just enough to absorb JSON round-tripping — and anything beyond that
is a real change. Host wall-clock speed is gated by ``perfbench/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.registry import Measurement

__all__ = ["Delta", "compare_snapshots", "format_deltas", "gate"]

#: Relative slack for "bit-stable" metrics: absorbs float → JSON →
#: float round-tripping, nothing more.
EXACT_REL_EPS = 1e-9

VERDICTS = ("ok", "regressed", "improved", "drift", "skipped")


@dataclass(frozen=True)
class Delta:
    """One compared metric."""

    scenario: str
    metric: str
    old: float
    new: float
    verdict: str
    note: str = ""

    @property
    def rel_change(self) -> float:
        if self.old == 0:
            return math.inf if self.new != 0 else 0.0
        return (self.new - self.old) / abs(self.old)


def _same_exact(old: float, new: float) -> bool:
    if math.isnan(old) and math.isnan(new):
        return True
    if old == new:
        return True
    scale = max(abs(old), abs(new))
    return abs(new - old) <= EXACT_REL_EPS * scale


def _compare_metric(
    scenario: str,
    metric: str,
    old: Measurement,
    new: Measurement,
) -> Delta:
    if _same_exact(old.value, new.value):
        return Delta(scenario, metric, old.value, new.value, "ok")
    if old.direction == "info":
        return Delta(
            scenario, metric, old.value, new.value, "drift",
            "deterministic info metric changed",
        )
    worse = (
        new.value > old.value
        if old.direction == "lower"
        else new.value < old.value
    )
    if worse:
        return Delta(
            scenario, metric, old.value, new.value, "regressed",
            "simulated-clock metric is bit-stable; this is a real change",
        )
    return Delta(
        scenario, metric, old.value, new.value, "improved",
        "refresh the snapshot to adopt the new baseline",
    )


def compare_snapshots(old: dict, new: dict) -> list[Delta]:
    """Classify every shared scenario/metric pair; see module docs."""
    deltas: list[Delta] = []
    old_scenarios = old["scenarios"]
    new_scenarios = new["scenarios"]
    for name in sorted(set(old_scenarios) & set(new_scenarios)):
        o, n = old_scenarios[name], new_scenarios[name]
        if o.get("digest") != n.get("digest"):
            deltas.append(
                Delta(
                    name, "*", float("nan"), float("nan"), "skipped",
                    "workload params changed — new baseline, not comparable",
                )
            )
            continue
        o_metrics, n_metrics = o["metrics"], n["metrics"]
        for metric in sorted(set(o_metrics) & set(n_metrics)):
            deltas.append(
                _compare_metric(
                    name, metric,
                    Measurement.from_dict(o_metrics[metric]),
                    Measurement.from_dict(n_metrics[metric]),
                )
            )
    return deltas


def gate(deltas: list[Delta]) -> list[Delta]:
    """The deltas that fail the merge gate (regressions only)."""
    return [d for d in deltas if d.verdict == "regressed"]


def format_deltas(deltas: list[Delta], verbose: bool = False) -> str:
    """The per-scenario delta table ``bench --compare`` prints.

    Non-``ok`` rows always print; ``ok`` rows only with *verbose*.
    """
    shown = [d for d in deltas if verbose or d.verdict != "ok"]
    lines = [
        f"compared {len(deltas)} metric(s): "
        + ", ".join(
            f"{v}={sum(1 for d in deltas if d.verdict == v)}"
            for v in VERDICTS
            if any(d.verdict == v for d in deltas)
        )
    ]
    if shown:
        lines.append("")
        lines.append(
            f"  {'scenario':<34s} {'metric':<28s} {'old':>14s} "
            f"{'new':>14s} {'Δ%':>8s}  verdict"
        )
        for d in shown:
            rel = d.rel_change
            rel_s = "n/a" if not math.isfinite(rel) else f"{rel:+.2%}"
            lines.append(
                f"  {d.scenario:<34s} {d.metric:<28s} {d.old:>14.6g} "
                f"{d.new:>14.6g} {rel_s:>8s}  {d.verdict}"
                + (f" ({d.note})" if d.note else "")
            )
    failures = gate(deltas)
    lines.append("")
    if failures:
        names = ", ".join(sorted({d.scenario for d in failures}))
        lines.append(
            f"GATE: {len(failures)} regression(s) in: {names}"
        )
    else:
        lines.append("GATE: clean — no regressions")
    return "\n".join(lines)
