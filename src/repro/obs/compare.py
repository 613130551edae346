"""Snapshot comparison and the CI gate.

:func:`compare_snapshots` walks every scenario and metric of a run and
its baseline and gives each row one verdict:

- ``ok`` — present on both sides, same params digest, same value.
- ``regressed`` — worse than the baseline.
- ``improved`` — better than the baseline.
- ``drift`` — an ``info``-direction metric changed (e.g. a likelihood
  value after a numerics change).
- ``digest`` — the scenario's workload params changed.
- ``missing`` — in the baseline, not in the run.
- ``added`` — in the run, not in the baseline.

The gate is one rule: **every row must be ok.** Every metric is
simulated-clock or otherwise deterministic, so it must be bit-stable;
values are compared with a relative epsilon of 1e-9 — just enough to
absorb JSON round-tripping — and anything beyond that is a real
change, whichever way it went. The verdict only says which way it
moved. A change that moves a metric on purpose refreshes the committed
baseline (``BENCH.json``) and names the metric in ``CHANGES.md``. Host
wall-clock speed is gated by ``perfbench/``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.registry import Measurement

__all__ = ["Delta", "compare_snapshots", "format_deltas", "gate"]

#: Relative slack for "bit-stable" metrics: absorbs float → JSON →
#: float round-tripping, nothing more.
EXACT_REL_EPS = 1e-9

VERDICTS = (
    "ok", "regressed", "improved", "drift", "digest", "missing", "added",
)

_NAN = float("nan")


@dataclass(frozen=True)
class Delta:
    """One compared row: a metric, or a whole scenario (``metric == "*"``)."""

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
            "info metric changed",
        )
    worse = (
        new.value > old.value
        if old.direction == "lower"
        else new.value < old.value
    )
    if worse:
        return Delta(
            scenario, metric, old.value, new.value, "regressed",
            "worse than the baseline",
        )
    return Delta(
        scenario, metric, old.value, new.value, "improved",
        "better than the baseline",
    )


def _one_sided(
    scenario: str, metric: str, in_old: bool, value: float
) -> Delta:
    """A scenario (``metric == "*"``) or metric that one side lacks."""
    if in_old:
        return Delta(scenario, metric, value, _NAN, "missing",
                     "in the baseline, not in this run")
    return Delta(scenario, metric, _NAN, value, "added",
                 "in this run, not in the baseline")


def compare_snapshots(old: dict, new: dict) -> list[Delta]:
    """One row per scenario/metric on either side; see module docs."""
    deltas: list[Delta] = []
    old_scenarios = old["scenarios"]
    new_scenarios = new["scenarios"]
    for name in sorted(set(old_scenarios) | set(new_scenarios)):
        if name not in old_scenarios or name not in new_scenarios:
            deltas.append(
                _one_sided(name, "*", name in old_scenarios, _NAN)
            )
            continue
        o, n = old_scenarios[name], new_scenarios[name]
        if o.get("digest") != n.get("digest"):
            deltas.append(
                Delta(
                    name, "*", _NAN, _NAN, "digest",
                    "workload params changed",
                )
            )
            continue
        o_metrics, n_metrics = o["metrics"], n["metrics"]
        for metric in sorted(set(o_metrics) | set(n_metrics)):
            if metric not in o_metrics or metric not in n_metrics:
                in_old = metric in o_metrics
                record = (o_metrics if in_old else n_metrics)[metric]
                deltas.append(
                    _one_sided(name, metric, in_old, float(record["value"]))
                )
                continue
            deltas.append(
                _compare_metric(
                    name, metric,
                    Measurement.from_dict(o_metrics[metric]),
                    Measurement.from_dict(n_metrics[metric]),
                )
            )
    return deltas


def gate(deltas: list[Delta]) -> list[Delta]:
    """The deltas that fail the gate: every row that is not ``ok``."""
    return [d for d in deltas if d.verdict != "ok"]


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
            f"GATE: {len(failures)} row(s) differ from the baseline in: "
            f"{names}"
        )
    else:
        lines.append("GATE: clean — every metric matches the baseline")
    return "\n".join(lines)
