"""Pluggable collective-communication layer with a topology-aware planner.

``repro.comm`` owns everything that moves φ between devices:

- :mod:`~repro.comm.topology` — immutable fabric snapshots
  (:class:`Topology`, :class:`LinkInfo`) derived from a simulated
  machine or cluster network;
- :mod:`~repro.comm.transfer` — the retry/host-fallback policy
  (:class:`TransferRetry`, :func:`with_retry`, :func:`resilient_p2p`)
  and the parameter-server message helpers;
- :mod:`~repro.comm.collectives` — the executable sync algorithms
  (tree, ring, cpu_gather, hierarchical) behind the
  :class:`Collective` interface, each with a cost ``estimate``,
  in the ordered :data:`COLLECTIVES`;
- :mod:`~repro.comm.cluster` — the inter-node backends (eth_ring,
  param_server) in the ordered :data:`CLUSTER_COLLECTIVES`;
- :mod:`~repro.comm.planner` — :func:`plan_sync` and
  :func:`plan_cluster_sync`, one selection path that resolves
  ``--sync auto`` / ``--inter-sync auto`` into the cheapest feasible
  collective per (topology, payload, alive set) as a :class:`SyncPlan`.

Consumers — the training engine's sync phase, the serving φ
re-broadcast, the cluster parameter server — go through this package;
none of them dispatches on algorithm names themselves. See
``docs/SYNC.md`` for the planner design and decision tables.
"""

from repro.comm.cluster import (
    CLUSTER_COLLECTIVES,
    ClusterCollective,
    ClusterSyncContext,
    ClusterSyncResult,
    EthRingCollective,
    ParamServerCollective,
    get_cluster_collective,
)
from repro.comm.collectives import (
    COLLECTIVES,
    Collective,
    CostEstimate,
    SyncContext,
    broadcast_phi,
    cpu_gather_sync,
    get_collective,
    hierarchical_allreduce_phi,
    reduce_phi_tree,
    ring_allreduce_phi,
)
from repro.comm.planner import (
    AUTO,
    SyncPlan,
    cluster_sync_choices,
    decisions_from_registry,
    plan_cluster_sync,
    plan_sync,
    sync_choices,
)
from repro.comm.topology import NVLINK_CLASS_GBPS, LinkInfo, Topology
from repro.comm.transfer import (
    TransferRetry,
    fanin_messages,
    fanout_messages,
    resilient_p2p,
    with_retry,
)

__all__ = [
    "AUTO",
    "CLUSTER_COLLECTIVES",
    "COLLECTIVES",
    "ClusterCollective",
    "ClusterSyncContext",
    "ClusterSyncResult",
    "Collective",
    "CostEstimate",
    "EthRingCollective",
    "LinkInfo",
    "NVLINK_CLASS_GBPS",
    "ParamServerCollective",
    "SyncContext",
    "SyncPlan",
    "Topology",
    "TransferRetry",
    "broadcast_phi",
    "cluster_sync_choices",
    "cpu_gather_sync",
    "decisions_from_registry",
    "fanin_messages",
    "fanout_messages",
    "get_cluster_collective",
    "get_collective",
    "hierarchical_allreduce_phi",
    "plan_cluster_sync",
    "plan_sync",
    "reduce_phi_tree",
    "resilient_p2p",
    "ring_allreduce_phi",
    "sync_choices",
    "with_retry",
]
