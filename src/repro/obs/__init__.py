"""Performance observatory: benchmark snapshots and the exact-match gate.

``repro.obs`` turns the repo's performance surface into a curated,
versioned artifact:

- :mod:`repro.obs.registry` — scenario registry and the
  :class:`Measurement` gate direction.
- :mod:`repro.obs.scenarios` — the curated suite (train / sync / serve
  groups); importing it populates :data:`REGISTRY`.
- :mod:`repro.obs.snapshot` — run the suite, write/load snapshots (the
  committed baseline is ``BENCH.json``).
- :mod:`repro.obs.compare` — bit-stable snapshot comparison; the
  ``bench --compare`` CI gate.
- :mod:`repro.obs.workloads` — seeded workload builders for the scenarios.
- :mod:`repro.obs.profiling` — the ``repro-lda profile --format json``
  schema.

Every metric here is on the simulated clock or otherwise exact; host
wall-clock speed is measured and gated by ``perfbench/``. See
``docs/BENCHMARKS.md`` for the workflow.
"""

from repro.obs.compare import Delta, compare_snapshots, format_deltas, gate
from repro.obs.profiling import PROFILE_SCHEMA, profile_json
from repro.obs.registry import (
    REGISTRY,
    BenchRegistry,
    Measurement,
    Scenario,
    params_digest,
)
from repro.obs.snapshot import (
    SNAPSHOT_SCHEMA,
    format_snapshot,
    load_snapshot,
    run_suite,
    write_snapshot,
)

__all__ = [
    "Measurement",
    "Scenario",
    "BenchRegistry",
    "REGISTRY",
    "params_digest",
    "SNAPSHOT_SCHEMA",
    "run_suite",
    "write_snapshot",
    "load_snapshot",
    "format_snapshot",
    "Delta",
    "compare_snapshots",
    "format_deltas",
    "gate",
    "PROFILE_SCHEMA",
    "profile_json",
]
