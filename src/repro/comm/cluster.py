"""Cluster collectives: the inter-node φ-sync leg of multi-node CuLDA.

Multi-node training runs the paper's intra-node reduce tree (§5.2) on
each machine, then combines the per-node partial counts across the
Ethernet fabric. This module provides the two interchangeable backends
for that inter-node leg, ranked by the same planner as the GPU
collectives in :mod:`repro.comm.collectives`:

- ``eth_ring`` — a leader ring over :class:`ClusterNetwork`: each
  node's leader GPU contributes its node-summed φ, and the leaders run
  a segmented ring all-reduce (2(N−1) lock-stepped steps over row
  segments) directly over the node NICs.
- ``param_server`` — push/pull through the replicated
  :class:`~repro.cluster.paramserver.ShardedParameterServer` (the LDA*
  substrate): every node pushes its Δφ since the last global sync, a
  barrier waits for all pushes, and every node pulls the assembled φ —
  paying for chained replication but inheriting the server's CRC
  checksums, failover, and single-copy repair.

Both backends are **exact**: φ is combined in integer arithmetic, so
the result is bit-identical whichever backend (or GPU layout) produced
it. Their ``estimate`` methods *replay* the exact message schedule
against the :class:`~repro.comm.topology.Topology` snapshot — the same
per-link, per-direction frontier arithmetic
:meth:`~repro.gpusim.interconnect.Link.reserve` uses — so the planner's
predicted seconds equal the simulator's measured seconds for the same
ready times. The ring schedule is written once and run against a
``send`` callable: :meth:`ClusterNetwork.send` to execute it, the
replay to estimate it. ``Topology.from_cluster`` excludes
detector-dead nodes, so a plan can never route through one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.comm.collectives import INFEASIBLE, CostEstimate
from repro.comm.topology import LinkInfo, Topology
from repro.comm.transfer import TransferRetry
from repro.telemetry.context import emit_counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.network import ClusterNetwork
    from repro.cluster.paramserver import ShardedParameterServer

__all__ = [
    "ClusterSyncContext",
    "ClusterSyncResult",
    "ClusterCollective",
    "EthRingCollective",
    "ParamServerCollective",
    "CLUSTER_COLLECTIVES",
    "get_cluster_collective",
    "ring_segment_bytes",
]


# ----------------------------------------------------------------------
# Context / result
# ----------------------------------------------------------------------

@dataclass
class ClusterSyncContext:
    """Everything one inter-node φ combine needs.

    ``node_counts[i]`` is node ``nodes[i]``'s absolute φ counts (the
    node-local intra-reduce result, int64 ``K×V``); ``pending[i]`` is
    its delta since the last global sync (what a parameter-server push
    carries). ``ready[i]`` is the earliest global-clock time node ``i``
    can start communicating (its intra-node work is done then).
    """

    network: "ClusterNetwork"
    nodes: tuple[int, ...]
    node_counts: list[np.ndarray]
    pending: list[np.ndarray]
    ready: list[float]
    entry_bytes: int = 4
    retry: TransferRetry | None = None
    server: "ShardedParameterServer | None" = None


@dataclass(frozen=True)
class ClusterSyncResult:
    """Outcome of one inter-node combine: the new global φ (int64),
    each participating node's completion time on the global clock, and
    the payload bytes put on the wire."""

    phi: np.ndarray
    done: tuple[float, ...]
    bytes_on_wire: float


class ClusterCollective:
    """Interface every inter-node sync backend implements."""

    name: str = "?"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        raise NotImplementedError

    def estimate(
        self,
        topo: Topology,
        nodes: tuple[int, ...],
        shape: tuple[int, int],
        entry_bytes: int = 4,
        retry: TransferRetry | None = None,
        server: "ShardedParameterServer | None" = None,
    ) -> CostEstimate:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Shared replay machinery
# ----------------------------------------------------------------------

@dataclass
class _LinkFrontiers:
    """Mirror of the cluster links' per-direction busy frontiers, used
    to replay a message schedule analytically. Direction 0 is egress,
    1 is ingress — exactly :meth:`ClusterNetwork._send_once`."""

    host: dict[int, LinkInfo]
    frontier: dict[tuple[int, int], float] = field(default_factory=dict)

    def send(self, src: int, dst: int, nbytes: float, earliest: float) -> float:
        """Replay one ``src → dst`` message; returns its end time, or
        ``inf`` when either endpoint link is down or absent."""
        if src == dst:
            return earliest
        a, b = self.host.get(src), self.host.get(dst)
        if a is None or b is None or not a.up or not b.up:
            return float("inf")
        s1 = max(earliest, self.frontier.get((src, 0), 0.0))
        e1 = s1 + a.transfer_seconds(nbytes)
        self.frontier[(src, 0)] = e1
        s2 = max(s1, self.frontier.get((dst, 1), 0.0))
        e2 = s2 + b.transfer_seconds(nbytes)
        self.frontier[(dst, 1)] = e2
        return max(e1, e2)


def ring_segment_bytes(
    shape: tuple[int, int], num_nodes: int, entry_bytes: int
) -> list[float]:
    """Per-step payload of the segmented ring: φ's K rows split into
    ``num_nodes`` near-equal contiguous row blocks."""
    K, V = shape
    rows = [len(block) for block in np.array_split(np.arange(K), num_nodes)]
    return [float(r) * V * entry_bytes for r in rows]


def _ring_exchange(
    nodes: tuple[int, ...],
    seg_bytes: list[float],
    ready: list[float],
    send: Callable[[int, int, float, float], float],
) -> tuple[list[float], float]:
    """The eth_ring schedule: 2(N−1) lock-stepped steps (reduce-scatter
    then all-gather) in which node position *i* sends row segment
    ``(i − step) mod N`` to position *i+1*, each message timed by
    ``send(src, dst, nbytes, earliest) -> end``. Returns each
    position's completion time and the bytes sent."""
    N = len(nodes)
    times = list(ready)
    total = 0.0
    for step in range(2 * (N - 1)):
        t0 = max(times)
        ends = [t0] * N
        for i in range(N):
            j = (i + 1) % N
            nbytes = seg_bytes[(i - step) % N]
            end = send(nodes[i], nodes[j], nbytes, t0)
            total += nbytes
            ends[i] = max(ends[i], end)   # i's egress finishes
            ends[j] = max(ends[j], end)   # j's ingress finishes
        times = ends
    return times, total


# ----------------------------------------------------------------------
# eth_ring: leader ring over the node NICs
# ----------------------------------------------------------------------

class EthRingCollective(ClusterCollective):
    """Segmented ring all-reduce between node leaders.

    Steps are lock-stepped: every step starts once all leaders have
    finished the previous one (the barrier is what makes the schedule
    replayable analytically), and in each step leader *i* sends one row
    segment to leader *i+1 mod N*. 2(N−1) steps move ≈ 2(N−1)/N · |φ|
    bytes through each NIC — the bandwidth-optimal exchange.
    """

    name = "eth_ring"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        """Ring-combine the node counts. When ``ctx.server`` is set it is
        kept in lockstep, so backends can alternate mid-run without
        drift."""
        phi = np.zeros_like(ctx.node_counts[0], dtype=np.int64)
        for counts in ctx.node_counts:
            phi += counts
        N = len(ctx.nodes)
        times, total = list(ctx.ready), 0.0
        if N > 1:
            def send(src: int, dst: int, nbytes: float, earliest: float) -> float:
                return ctx.network.send(
                    src, dst, nbytes, earliest, op="internode_ring",
                    retry=ctx.retry,
                )[1]

            times, total = _ring_exchange(
                ctx.nodes, ring_segment_bytes(phi.shape, N, ctx.entry_bytes),
                ctx.ready, send,
            )
            emit_counter(
                "internode_sync_bytes_total", total,
                help="inter-node φ-sync payload bytes, per backend",
                backend=self.name,
            )
        if ctx.server is not None:
            ctx.server.phi = phi
        return ClusterSyncResult(phi, tuple(times), total)

    def estimate(
        self, topo, nodes, shape, entry_bytes=4, retry=None, server=None
    ) -> CostEstimate:
        N = len(nodes)
        if N == 0:
            return INFEASIBLE
        if N == 1:
            return CostEstimate(seconds=0.0, bytes_on_wire=0.0, steps=0)
        times, total = _ring_exchange(
            nodes, ring_segment_bytes(shape, N, entry_bytes), [0.0] * N,
            _LinkFrontiers(topo.host).send,
        )
        if not math.isfinite(max(times)):
            return INFEASIBLE
        return CostEstimate(
            seconds=max(times), bytes_on_wire=total, steps=2 * (N - 1)
        )


# ----------------------------------------------------------------------
# param_server: push/pull through the replicated sharded server
# ----------------------------------------------------------------------

class ParamServerCollective(ClusterCollective):
    """Synchronous push/pull through the sharded parameter server.

    Every node pushes its Δφ since the last global sync (one message
    per shard to the shard's primary, chained to its replica), a
    barrier waits for the last push, then every node pulls the
    assembled φ. More wire traffic than the ring (replication and the
    pull fan-out), but the counts land in the PR 8 substrate: CRC
    checksums, failover reads, single-copy repair.
    """

    name = "param_server"

    def allreduce(self, ctx: ClusterSyncContext) -> ClusterSyncResult:
        server = ctx.server
        if server is None:
            raise ValueError(
                "param_server inter-node sync requires a ShardedParameterServer"
            )
        nodes = ctx.nodes
        if len(nodes) == 1:
            phi = ctx.node_counts[0].astype(np.int64, copy=True)
            server.phi = phi
            return ClusterSyncResult(phi, (ctx.ready[0],), 0.0)
        words = np.arange(server.num_words)
        wire0 = server.bytes_pushed + server.bytes_pulled
        push_done = [
            server.push(
                node, words, ctx.pending[i], ctx.ready[i],
                entry_bytes=ctx.entry_bytes, retry=ctx.retry,
            )
            for i, node in enumerate(nodes)
        ]
        barrier = max(push_done)  # pulls must observe every push
        done = []
        for node in nodes:
            _, end = server.pull(
                node, words, barrier,
                entry_bytes=ctx.entry_bytes, retry=ctx.retry,
            )
            done.append(end)
        total = server.bytes_pushed + server.bytes_pulled - wire0
        emit_counter(
            "internode_sync_bytes_total", total,
            help="inter-node φ-sync payload bytes, per backend",
            backend=self.name,
        )
        return ClusterSyncResult(server.phi.copy(), tuple(done), total)

    def estimate(
        self, topo, nodes, shape, entry_bytes=4, retry=None, server=None
    ) -> CostEstimate:
        """Replay the push/pull schedule on the live *server*'s shard
        placement; infeasible without a server, as :meth:`allreduce`
        cannot run without one."""
        N = len(nodes)
        if N == 0 or server is None:
            return INFEASIBLE
        if N == 1:
            return CostEstimate(seconds=0.0, bytes_on_wire=0.0, steps=0)
        K, V = shape
        S = server.num_shards
        counts = [len(range(s, V, S)) for s in range(S)]
        primary = [server.primary_node_of(s) for s in range(S)]
        replica = [server.replica_node_of(s) for s in range(S)]

        def reachable(node: int) -> bool:
            info = topo.host.get(node)
            return info is not None and info.up

        links = _LinkFrontiers(topo.host)
        total = 0.0
        # Push phase (same issue order as allreduce: node-ascending, then
        # shard-ascending within each node).
        push_done = []
        for node in nodes:
            end_n = 0.0
            for s in range(S):
                if not counts[s]:
                    continue
                nbytes = float(K) * counts[s] * entry_bytes
                dst, rep = primary[s], replica[s]
                if not reachable(dst):
                    # Failover push to the replica as acting primary.
                    if rep == dst or not reachable(rep):
                        return INFEASIBLE
                    end = links.send(node, rep, nbytes, 0.0)
                else:
                    end = links.send(node, dst, nbytes, 0.0)
                    if rep != dst and reachable(rep):
                        end = max(end, links.send(dst, rep, nbytes, end))
                        total += nbytes
                if not np.isfinite(end):
                    return INFEASIBLE
                total += nbytes
                end_n = max(end_n, end)
            push_done.append(end_n)
        barrier = max(push_done)
        # Pull phase.
        done = []
        for node in nodes:
            end_n = barrier
            for s in range(S):
                if not counts[s]:
                    continue
                nbytes = float(K) * counts[s] * entry_bytes + K * 8
                src = primary[s]
                if not reachable(src):
                    src = replica[s]
                    if src == primary[s] or not reachable(src):
                        return INFEASIBLE
                end = links.send(src, node, nbytes, barrier)
                if not np.isfinite(end):
                    return INFEASIBLE
                total += nbytes
                end_n = max(end_n, end)
            done.append(end_n)
        return CostEstimate(
            seconds=max(done), bytes_on_wire=total, steps=2 * S
        )


#: Every inter-node backend, in ``auto``'s tie-break order.
CLUSTER_COLLECTIVES: tuple[ClusterCollective, ...] = (
    EthRingCollective(),
    ParamServerCollective(),
)


def get_cluster_collective(name: str) -> ClusterCollective:
    """Look an inter-node backend up by name."""
    for collective in CLUSTER_COLLECTIVES:
        if collective.name == name:
            return collective
    raise ValueError(
        f"unknown inter-node sync algorithm {name!r}; choices: "
        + ", ".join(("auto", *(c.name for c in CLUSTER_COLLECTIVES)))
    )
