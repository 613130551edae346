"""The benchmark scenario registry.

A *scenario* is one named, seeded, self-contained measurement: it
builds its own workload, runs it, and returns a dict of
:class:`Measurement` values. Scenarios declare themselves with the
:meth:`BenchRegistry.scenario` decorator (see
:mod:`repro.obs.scenarios` for the curated suite) and carry:

- a ``group`` (``train`` / ``sync`` / ``serve``) for display,
- ``params``, the exact workload spec. Its digest is stored in the
  snapshot; a changed digest fails the gate until the baseline is
  refreshed.

Every measurement is exact: a simulated-clock or otherwise
deterministic value, bit-stable run to run, so any change is a gate
event. Its ``direction`` says which way is better — ``"higher"`` /
``"lower"`` — or ``"info"`` (no better side; a change still fails the
gate). Host
wall-clock speed is measured by ``perfbench/``, not here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Measurement",
    "Scenario",
    "BenchRegistry",
    "REGISTRY",
    "params_digest",
]

DIRECTIONS = ("higher", "lower", "info")


@dataclass(frozen=True)
class Measurement:
    """One exact metric value and the direction that is better."""

    value: float
    unit: str = ""
    direction: str = "lower"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {self.direction!r}"
            )

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Measurement":
        return cls(
            value=float(record["value"]),
            unit=str(record.get("unit", "")),
            direction=str(record.get("direction", "lower")),
        )


def params_digest(params: dict) -> str:
    """Stable short digest of a scenario's workload spec."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    group: str
    description: str
    params: dict
    fn: Callable[[], dict] = field(compare=False)

    @property
    def digest(self) -> str:
        return params_digest(self.params)

    def run(self) -> dict:
        metrics = self.fn()
        for key, m in metrics.items():
            if not isinstance(m, Measurement):
                raise TypeError(
                    f"scenario {self.name!r} metric {key!r} is "
                    f"{type(m).__name__}, expected Measurement"
                )
        return metrics


class BenchRegistry:
    """Name → scenario map with decorator-based registration."""

    def __init__(self) -> None:
        self._scenarios: dict[str, Scenario] = {}

    def scenario(
        self,
        name: str,
        group: str,
        description: str,
        **params,
    ):
        """Register the decorated zero-arg callable as a scenario."""
        if name in self._scenarios:
            raise ValueError(f"scenario {name!r} already registered")

        def decorate(fn: Callable[[], dict]) -> Callable[[], dict]:
            self._scenarios[name] = Scenario(
                name=name, group=group,
                description=description, params=dict(params), fn=fn,
            )
            return fn

        return decorate

    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            raise KeyError(f"no scenario named {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def select(self, only: str | None = None) -> list[Scenario]:
        """Every scenario, name-sorted, optionally filtered to names
        containing *only*."""
        return [
            self._scenarios[name]
            for name in self.names()
            if not only or only in name
        ]


#: The process-wide registry; importing :mod:`repro.obs.scenarios`
#: populates it with the curated suite.
REGISTRY = BenchRegistry()
