"""Distributed-cluster substrate for the LDA* baseline.

The paper's distributed comparator (LDA*, Yu et al. VLDB 2017) runs on
commodity nodes linked by 10 Gb/s Ethernet with a sharded parameter
server. This subpackage simulates that substrate:

- :mod:`repro.cluster.network` — a star network of Ethernet links with
  per-node contention; also the cluster fault domain (node death, NIC
  outages) with structured errors and retrying sends.
- :mod:`repro.cluster.paramserver` — a sharded parameter server holding
  φ, with per-iteration pull (fresh slices) / push (deltas) traffic,
  chained replication, checksum repair, failover, and elastic
  re-sharding after node loss.
- :mod:`repro.cluster.membership` — the heartbeat/lease failure
  detector that turns node silence into ``alive → suspect → dead``
  membership verdicts on the simulated clock.
- :mod:`repro.cluster.placement` — the token-lightest planner that
  migrates a dead node's logical workers onto survivors.
"""

from repro.cluster.membership import (
    HeartbeatConfig,
    MembershipMonitor,
    NodeLost,
)
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.cluster.placement import migrate_workers, token_lightest_moves

__all__ = [
    "ClusterNetwork",
    "HeartbeatConfig",
    "MembershipMonitor",
    "NodeLost",
    "ShardedParameterServer",
    "migrate_workers",
    "token_lightest_moves",
]
