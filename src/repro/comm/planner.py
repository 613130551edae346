"""Cost-model-driven selection of the sync collective.

``--sync auto`` (the default) resolves here: the planner snapshots the
current :class:`~repro.comm.topology.Topology`, asks every
:class:`~repro.comm.collectives.Collective` for a
:class:`~repro.comm.collectives.CostEstimate` of this payload on this
fabric, and executes the cheapest feasible one. Manual ``--sync``
choices remain available as *forced* plans — the planner still runs, so
the estimate and decision telemetry are recorded either way, but the
named collective executes regardless of cost.

Because the topology is re-snapshotted every call, the plan adapts
within a run: a link taken down by a fault plan re-routes the next sync
(typically to ``cpu_gather``, whose legs never touch the P2P fabric),
and a lost GPU shrinks the device set (the elastic G−1 path). Ties are
broken by candidate order, which puts ``gpu_tree`` — the paper's
choice and the previous hard-wired default — first: ``auto`` can never
be slower than the old behaviour on equal estimates.

The inter-node leg of multi-node training (:func:`plan_cluster_sync`)
goes through the same selection over the cluster backends of
:mod:`repro.comm.cluster`; only the topology differs.

Decisions are emitted as telemetry (``sync_planner_decisions_total``
counters and a ``sync_planner_predicted_seconds`` gauge) and surfaced
by ``repro-lda profile`` via :func:`decisions_from_registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.comm.cluster import (
    CLUSTER_COLLECTIVES,
    ClusterCollective,
    get_cluster_collective,
)
from repro.comm.collectives import (
    COLLECTIVES,
    Collective,
    CostEstimate,
    get_collective,
)
from repro.comm.topology import Topology
from repro.comm.transfer import TransferRetry
from repro.core.kernels import KernelConfig
from repro.gpusim.errors import SyncPathError
from repro.gpusim.platform import Machine
from repro.telemetry.context import emit_counter, emit_gauge

__all__ = [
    "AUTO",
    "SyncPlan",
    "plan_sync",
    "plan_cluster_sync",
    "sync_choices",
    "cluster_sync_choices",
    "decisions_from_registry",
]

#: The sentinel algorithm name that delegates the choice to the planner.
AUTO = "auto"


@dataclass(frozen=True)
class SyncPlan:
    """One resolved sync decision: which collective runs, and why.

    ``forced`` distinguishes a manual ``--sync`` override from a
    planner pick; ``estimate`` is the cost model's prediction for the
    chosen collective on ``topology`` (recorded even when forced, so
    profiles can show what the override cost). ``participants`` are the
    devices — GPUs, or cluster nodes for the inter-node leg — the
    collective runs over.
    """

    algorithm: str
    collective: Collective | ClusterCollective
    estimate: CostEstimate
    forced: bool
    topology: Topology
    participants: tuple[int, ...]


def _select(
    candidates: Sequence[Collective | ClusterCollective],
    lookup: Callable[[str], Collective | ClusterCollective],
    algorithm: str,
    topo: Topology,
    participants: tuple[int, ...],
    estimate: Callable[[Collective | ClusterCollective], CostEstimate],
    op: str,
    fabric: str,
) -> SyncPlan:
    """Resolve *algorithm* over *candidates* and record the decision.

    ``AUTO`` picks the minimum *estimate* among the feasible
    candidates, earlier candidates winning ties; any other name is
    looked up and forced. When nothing is feasible the
    :class:`~repro.gpusim.errors.SyncPathError` names the first down
    link of *topo* (or *fabric* when none is down).
    """
    forced = algorithm != AUTO
    if forced:
        chosen = lookup(algorithm)
        best = estimate(chosen)
    else:
        chosen = best = None
        for cand in candidates:
            est = estimate(cand)
            if est.feasible and (best is None or est.seconds < best.seconds):
                chosen, best = cand, est
        if chosen is None:
            dead = sorted(
                info.name for info in topo.host.values() if not info.up
            )
            raise SyncPathError(
                dead[0] if dead else fabric, op, devices=participants
            )
    emit_counter(
        "sync_planner_decisions_total", 1,
        help="sync collectives chosen by the planner (forced=manual --sync)",
        algorithm=chosen.name,
        topology=topo.describe(),
        forced=str(forced).lower(),
    )
    if best.feasible:
        emit_gauge(
            "sync_planner_predicted_seconds", best.seconds,
            help="cost-model prediction for the chosen sync collective",
            algorithm=chosen.name,
            topology=topo.describe(),
        )
    return SyncPlan(
        algorithm=chosen.name,
        collective=chosen,
        estimate=best,
        forced=forced,
        topology=topo,
        participants=participants,
    )


def plan_sync(
    machine: Machine,
    shape: tuple[int, int],
    config: KernelConfig,
    retry: TransferRetry | None = None,
    algorithm: str = AUTO,
    devices: list[int] | None = None,
) -> SyncPlan:
    """Resolve *algorithm* into a :class:`SyncPlan` for the GPUs of one
    machine.

    ``AUTO`` picks the minimum predicted simulated time over
    :data:`~repro.comm.collectives.COLLECTIVES`; any other name forces
    that collective. *devices* defaults to the machine's alive-GPU set.
    Raises :class:`~repro.gpusim.errors.SyncPathError` if no collective
    has a usable path, and ``ValueError`` for an unknown name.
    """
    topo = Topology.from_machine(machine, devices=devices)
    return _select(
        COLLECTIVES, get_collective, algorithm, topo, topo.devices,
        lambda c: c.estimate(machine, topo, shape, config, retry=retry),
        "sync_plan", "p2p",
    )


def plan_cluster_sync(
    network,
    shape: tuple[int, int],
    entry_bytes: int = 4,
    retry: TransferRetry | None = None,
    algorithm: str = AUTO,
    nodes: list[int] | None = None,
    server=None,
) -> SyncPlan:
    """Resolve *algorithm* into a :class:`SyncPlan` for the inter-node
    leg (multi-node CuLDA's φ exchange).

    The topology comes from :meth:`Topology.from_cluster`, which
    excludes nodes the failure detector has declared dead, so a plan
    can never route through one. *nodes* defaults to every alive node;
    dead nodes are filtered out of an explicit list too. ``param_server``
    is feasible only with a *server*. Raises
    :class:`~repro.gpusim.errors.SyncPathError` when no backend has a
    usable path and ``ValueError`` for an unknown name.
    """
    topo = Topology.from_cluster(network)
    live = (
        topo.devices if nodes is None
        else tuple(n for n in nodes if n in topo.devices)
    )
    return _select(
        CLUSTER_COLLECTIVES, get_cluster_collective, algorithm, topo, live,
        lambda c: c.estimate(
            topo, live, shape, entry_bytes, retry=retry, server=server
        ),
        "cluster_sync_plan", "eth",
    )


def sync_choices() -> tuple[str, ...]:
    """Every valid ``--sync`` value: ``auto`` plus the collectives, in
    tie-break order — the single source for CLI ``choices=``."""
    return (AUTO, *(c.name for c in COLLECTIVES))


def cluster_sync_choices() -> tuple[str, ...]:
    """Every valid ``--inter-sync`` value: ``auto`` plus the inter-node
    backends, in tie-break order."""
    return (AUTO, *(c.name for c in CLUSTER_COLLECTIVES))


def decisions_from_registry(registry) -> list[dict[str, object]]:
    """Planner decisions recorded in *registry*, for profile output.

    Returns one dict per (algorithm, topology, forced) series of the
    ``sync_planner_decisions_total`` counter, with the matching
    predicted-seconds gauge folded in when present.
    """
    counter = registry.get("sync_planner_decisions_total")
    if counter is None:
        return []
    gauge = registry.get("sync_planner_predicted_seconds")
    out: list[dict[str, object]] = []
    for sample in counter.samples():
        entry: dict[str, object] = {
            "algorithm": sample.labels["algorithm"],
            "topology": sample.labels["topology"],
            "forced": sample.labels["forced"] == "true",
            "count": int(sample.value),
        }
        if gauge is not None:
            predicted = gauge.value(
                algorithm=sample.labels["algorithm"],
                topology=sample.labels["topology"],
            )
            if predicted:
                entry["predicted_seconds"] = predicted
        out.append(entry)
    out.sort(key=lambda e: -e["count"])
    return out
