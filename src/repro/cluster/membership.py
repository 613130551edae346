"""Heartbeat membership: turning silent node death into an event.

A cluster's unit of failure is the *node* — a machine dies, a NIC
flaps, and the only thing the survivors observe is silence. The
:class:`MembershipMonitor` is a heartbeat/lease failure detector on the
simulated clock: every node emits a heartbeat each
:attr:`HeartbeatConfig.interval` seconds while it is reachable; a node
silent for :attr:`~HeartbeatConfig.suspect_after` seconds becomes
``suspect``, and one silent for :attr:`~HeartbeatConfig.dead_after`
seconds is declared ``dead`` — permanently, the same one-way door as a
:class:`~repro.gpusim.errors.DeviceLost` GPU. A suspect node whose
heartbeats resume is readmitted to ``alive``.

The monitor is an FSM over ``("alive", "suspect", "dead")`` like the
serving layer's replica :class:`~repro.serve.resilience.HealthMonitor`,
but for cluster nodes: callers pass the simulated *now* with every
observation, so verdicts are deterministic and replayable. Heartbeats
themselves are modeled as out-of-band and free (tens of bytes against
multi-megabyte φ traffic); what is timed is the *lease*: a worker
blocked on an unreachable peer waits until the detector rules
(:meth:`MembershipMonitor.await_verdict`) — that stall is the real
price of failure detection and it stays on the clock.

Transitions are recorded in :attr:`MembershipMonitor.timeline` (one
``(sim_time, node, from_state, to_state)`` tuple each, starting with a
``join`` entry per node) — the membership history a structured
:class:`~repro.engine.recovery.TrainingFailure` carries when a run
dies, and the evidence chaos tests assert on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpusim.errors import NodeLost
from repro.telemetry.context import emit_counter, emit_gauge

__all__ = ["MEMBER_STATES", "HeartbeatConfig", "MembershipMonitor", "NodeLost"]

#: Node membership states, in escalation order. ``dead`` is permanent.
MEMBER_STATES = ("alive", "suspect", "dead")


@dataclass(frozen=True)
class HeartbeatConfig:
    """Failure-detector knobs (all in simulated seconds).

    Attributes
    ----------
    interval: heartbeat period — a reachable node's lease is renewed at
        every multiple of this.
    suspect_after: silence that makes a node ``suspect`` (ejected from
        nothing yet, but the clock is ticking).
    dead_after: silence that makes a node ``dead`` permanently. Must
        exceed ``suspect_after``; the gap is the grace window in which
        a flapping NIC can rejoin.
    """

    interval: float = 0.05
    suspect_after: float = 0.5
    dead_after: float = 2.0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.suspect_after < self.interval:
            raise ValueError(
                "suspect_after must be at least one heartbeat interval"
            )
        if self.dead_after <= self.suspect_after:
            raise ValueError("dead_after must be greater than suspect_after")


class MembershipMonitor:
    """Tracks every cluster node's membership state on the simulated clock.

    Parameters
    ----------
    network: the :class:`~repro.cluster.network.ClusterNetwork` whose
        reachability (:meth:`~repro.cluster.network.ClusterNetwork.node_up`)
        stands in for heartbeat receipt.
    config: detector thresholds.
    """

    def __init__(self, network, config: HeartbeatConfig | None = None):
        self.network = network
        self.config = config or HeartbeatConfig()
        n = network.num_nodes
        self._state = {node: "alive" for node in range(n)}
        self._last_heard = {node: 0.0 for node in range(n)}
        #: (sim_time, node, from_state, to_state); "join" marks entry.
        self.timeline: list[tuple[float, int, str, str]] = [
            (0.0, node, "join", "alive") for node in range(n)
        ]

    @classmethod
    def for_policy(cls, network, policy) -> "MembershipMonitor":
        """A monitor with *policy*'s lease thresholds when it carries
        them (a :class:`~repro.engine.recovery.ClusterRecoveryPolicy`),
        else the defaults. *policy* may be ``None``."""
        heartbeat = getattr(policy, "heartbeat_config", None)
        return cls(network, heartbeat() if heartbeat is not None else None)

    # ------------------------------------------------------------------
    def state(self, node: int) -> str:
        return self._state[node]

    def states(self) -> dict[int, str]:
        return dict(self._state)

    def is_dead(self, node: int) -> bool:
        return self._state[node] == "dead"

    @property
    def dead_nodes(self) -> list[int]:
        return sorted(n for n, s in self._state.items() if s == "dead")

    @property
    def alive_nodes(self) -> list[int]:
        return sorted(n for n, s in self._state.items() if s != "dead")

    # ------------------------------------------------------------------
    def _transition(self, node: int, to: str, at: float) -> None:
        frm = self._state[node]
        if frm == to:
            return
        self._state[node] = to
        self.timeline.append((at, node, frm, to))
        emit_counter(
            "cluster_membership_transitions_total", 1,
            help="Cluster membership state transitions.",
            node=node, to=to,
        )
        emit_gauge(
            "cluster_nodes_alive",
            float(sum(1 for s in self._state.values() if s != "dead")),
            help="Cluster nodes not declared dead by the failure detector.",
        )

    def _last_beat(self, now: float) -> float:
        """The latest heartbeat tick at or before *now* (the epsilon
        keeps exact multiples from rounding down a whole tick)."""
        ticks = math.floor(now / self.config.interval + 1e-9)
        return ticks * self.config.interval

    # ------------------------------------------------------------------
    def observe(self, now: float) -> list[int]:
        """Advance the detector to simulated time *now*.

        Reachable nodes renew their lease (at heartbeat granularity);
        silent ones progress ``alive → suspect → dead`` with each
        transition stamped at the exact simulated time its threshold
        expired, not at *now*. Returns the nodes newly declared dead.
        """
        cfg = self.config
        newly_dead = []
        for node in sorted(self._state):
            if self._state[node] == "dead":
                continue
            if self.network.node_up(node):
                self._last_heard[node] = max(
                    self._last_heard[node], self._last_beat(now)
                )
                self._transition(node, "alive", now)
                continue
            silent_since = self._last_heard[node]
            if now - silent_since >= cfg.dead_after:
                self._transition(node, "suspect", silent_since + cfg.suspect_after)
                self._transition(node, "dead", silent_since + cfg.dead_after)
                newly_dead.append(node)
            elif now - silent_since >= cfg.suspect_after:
                self._transition(node, "suspect", silent_since + cfg.suspect_after)
        return newly_dead

    def await_verdict(self, node: int, now: float) -> float:
        """Stall until the detector rules on an unreachable *node*.

        Models a worker blocked at the BSP barrier on a silent peer: it
        waits until either the peer's heartbeats resume or the lease
        expires. Returns the simulated time at which the verdict is in
        — check :meth:`is_dead` afterwards. If the node is already
        declared dead the verdict is immediate.
        """
        if self._state[node] == "dead":
            return now
        verdict_at = max(now, self._last_heard[node] + self.config.dead_after)
        self.observe(verdict_at)
        return verdict_at

    def force_dead(self, node: int, now: float = 0.0) -> None:
        """Declare *node* dead without waiting out the lease — used when
        restoring a checkpoint whose run had already buried it."""
        if self._state[node] != "dead":
            self._transition(node, "dead", now)

    def bury(self, nodes, at: float) -> None:
        """Re-bury *nodes* a checkpointed or snapshotted run had already
        lost: fail each on the network and declare it dead at *at*, so
        the restored run matches the one that wrote the state."""
        for node in sorted(int(n) for n in nodes):
            if self.network.node_alive(node):
                self.network.fail_node(node)
            self.force_dead(node, at)
