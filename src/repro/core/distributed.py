"""DistributedCuLDA: CuLDA_CGS across N nodes × G GPUs.

The paper stops at one machine; this trainer spans the cluster
substrate with hierarchical synchronization:

1. the corpus is token-balanced into ``C = M × N × G`` chunks by the
   same planner the single-machine trainer uses — one *global* plan
   over all ``W = N × G`` workers, so chunk boundaries and per-chunk
   RNG streams are identical for every (N, G) layout with the same W;
2. each node runs the paper's intra-node iteration unchanged
   (WorkSchedule1/2 plus the §5.2 reduce tree, ``--sync`` planned per
   machine), producing a node-summed φ on every local GPU;
3. an inter-node leg combines the node sums over the Ethernet fabric
   through a cluster collective (``eth_ring`` or ``param_server``,
   chosen by the replay-exact cost planner behind ``--inter-sync
   auto``), and the global φ is re-broadcast to every GPU.

Because the reduction is exact integer addition and chunk RNGs are
keyed by global chunk id, synchronous training is **bit-identical**
across worker layouts (1×4 ≡ 2×2 ≡ 4×1) and across inter-node
backends — enforced by ``tests/test_distributed.py``.

Bounded staleness (``TrainConfig.staleness = s``, after F+NOMAD): the
inter-node leg runs every ``s+1`` iterations; in between, each node
samples against the last global φ *plus its own pending updates*
(read-your-writes, so token counts are conserved). ``s = 0`` is the
synchronous mode and degenerates bit-identically.

One node is not a cluster: a single machine trains with
:class:`~repro.core.culda.CuLDA` (``--nodes 1``), and this trainer
needs at least two. The hierarchical path is not a free superset of the
single-machine one — its leader ``d2h:node_phi`` extraction and per-GPU
``h2d:phi_global`` redistribution would cost simulated time that one
machine never spends.

Elasticity (docs/DISTRIBUTED.md §5, docs/ROBUSTNESS.md §8): under a
:class:`~repro.engine.recovery.ClusterRecoveryPolicy` the trainer
survives node death, NIC outages, and parameter-server shard
corruption. A heartbeat :class:`~repro.cluster.membership.MembershipMonitor`
turns silence into a verdict at lease expiry; the dead node's logical
workers then migrate intact (chunk, z, θ, RNG) to the token-lightest
survivors, the replicated :class:`ShardedParameterServer` — which
parks the chunk-hosting plan and per-node φ bases as control-plane
metadata — re-shards over the surviving placement from an exact φ
recount, and training resumes. Because chunk RNG streams are keyed by
global chunk id and migration never re-chunks, the recovered
synchronous model is **bit-identical** to the fault-free run; the
async mode conserves tokens with the dead node's staleness window
drained deterministically at a fresh sync point. Recovery stalls stay
on the simulated clock (``node_recovery_stall_seconds_total``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import AUTO, ClusterSyncContext, get_cluster_collective, plan_cluster_sync
from repro.core.culda import BREAKDOWN_KINDS, CuLDA, TrainConfig
from repro.cluster.membership import MembershipMonitor
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.cluster.placement import migrate_workers
from repro.corpus.corpus import Corpus
from repro.engine.algorithm import IterationOutcome
from repro.engine.recovery import ClusterRecoveryPolicy
from repro.engine.results import TrainResult
from repro.engine.state import RunState
from repro.gpusim.errors import FaultError, NodeLost
from repro.gpusim.platform import Machine
from repro.sched.partition import choose_chunking
from repro.sched.schedule import (
    GpuWorker,
    download_chunk,
    iteration_trace_stats,
    run_iteration_resident,
    run_iteration_streaming,
    upload_chunk,
)
from repro.telemetry.context import emit_counter, emit_gauge
from repro.telemetry.spans import span

__all__ = ["DistributedCuLDA"]

#: φ travels the wire as int32 entries on the inter-node leg.
_ENTRY_BYTES = 4


class DistributedCuLDA(CuLDA):
    """CuLDA_CGS on *N ≥ 2* simulated machines joined by a cluster network.

    Parameters
    ----------
    corpus: input corpus.
    machines: one simulated machine per node, at least two; all nodes
        must have the same GPU count (G). One machine trains with
        :class:`~repro.core.culda.CuLDA`.
    network: the Ethernet fabric; defaults to a fresh
        :class:`~repro.cluster.network.ClusterNetwork` over the nodes.
    num_shards: parameter-server shards for the ``param_server``
        backend (default: one per node).

    The checkpoint format and ``name`` are shared with the
    single-machine trainer, so run-state files resume across any
    layout with the same total worker count. A ``recovery`` mode string
    passed to :meth:`train` becomes a
    :class:`~repro.engine.recovery.ClusterRecoveryPolicy`, so the
    heartbeat failure detector gets its lease thresholds.
    """

    _policy_class = ClusterRecoveryPolicy

    def __init__(
        self,
        corpus: Corpus,
        machines: Sequence[Machine],
        network: ClusterNetwork | None = None,
        config: TrainConfig | None = None,
        warm_start_phi: np.ndarray | None = None,
        callbacks=None,
        registry=None,
        num_shards: int | None = None,
    ):
        machines = list(machines)
        if len(machines) < 2:
            raise ValueError(
                f"DistributedCuLDA needs at least two machines (nodes), got "
                f"{len(machines)}; train a single machine with CuLDA"
            )
        gpus = {len(m.gpus) for m in machines}
        if len(gpus) != 1:
            raise ValueError(
                f"all nodes must have the same GPU count; got {sorted(gpus)}"
            )
        super().__init__(
            corpus, machines[0], config,
            warm_start_phi=warm_start_phi, callbacks=callbacks,
            registry=registry,
        )
        self.machines = machines
        self.num_nodes = len(machines)
        cfg = self.config
        if cfg.staleness < 0:
            raise ValueError("staleness must be >= 0")
        if cfg.inter_sync != AUTO:
            get_cluster_collective(cfg.inter_sync)  # raises on unknown name
        self.network = network or ClusterNetwork(self.num_nodes)
        if self.network.num_nodes != self.num_nodes:
            raise ValueError(
                f"network has {self.network.num_nodes} node(s), trainer has "
                f"{self.num_nodes}"
            )
        if num_shards is not None and not 1 <= num_shards <= self.num_nodes:
            raise ValueError("num_shards must be in [1, num_nodes]")
        self._num_shards = num_shards or self.num_nodes
        #: Built in init_state (needs φ); exposed for fault wiring.
        self.server: ShardedParameterServer | None = None
        #: Heartbeat failure detector; built in init_state so it picks
        #: up the active recovery policy's thresholds.
        self.membership: MembershipMonitor | None = None

    @property
    def gpus_per_node(self) -> int:
        return len(self.machines[0].gpus)

    @property
    def num_workers(self) -> int:
        return self.num_nodes * self.gpus_per_node

    # ------------------------------------------------------------------
    # Algorithm strategy surface
    # ------------------------------------------------------------------
    def init_state(self, resume: RunState | None = None) -> RunState:
        cfg = self.config
        hyper, kcfg = cfg.hyper(), cfg.kernel_config()
        self._hyper, self._kcfg = hyper, kcfg
        N, G = self.num_nodes, self.gpus_per_node
        W = N * G

        with span("preprocess"):
            # ONE global plan over all W workers: chunk i belongs to
            # global worker i % W, worker w = n*G + j lives on node n.
            # Chunk ids (and therefore RNG streams) are layout-invariant.
            plan = choose_chunking(
                self.corpus, W, hyper, kcfg,
                self.machines[0].gpus[0].spec,
                chunks_per_gpu=cfg.chunks_per_gpu,
            )
            runtimes = self._init_runtimes(plan, hyper, kcfg)
            if resume is not None:
                self._restore_runtimes(runtimes, resume)
        self._plan, self._runtimes = plan, runtimes

        # Failure detector over the fabric; lease thresholds come from
        # the ClusterRecoveryPolicy when one is active (the loop sets
        # recovery_policy before init_state).
        self.membership = MembershipMonitor.for_policy(
            self.network, getattr(self, "recovery_policy", None)
        )
        self._cluster_time = 0.0
        self._charged = 0.0
        self._t_prev_node = [0.0] * N

        # Chunk hosting: logical worker w starts on physical node w // G.
        # A checkpoint written after an elastic recovery carries the
        # migrated map and the buried node set in extras; both apply
        # only when the node count matches — on any other layout the
        # resume point is a fresh, healthy cluster (exact for sync
        # mode, where placement is invisible to the numerics).
        self._worker_node = [w // G for w in range(W)]
        self._dead_nodes: set[int] = set()
        extras = resume.extras if resume is not None else {}
        hosting = extras.get("dist_worker_node")
        wrote_nodes = extras.get("dist_num_nodes")
        if (
            hosting is not None
            and len(hosting) == W
            and wrote_nodes is not None
            and int(np.asarray(wrote_nodes)[0]) == N
        ):
            hosting = [int(x) for x in np.asarray(hosting)]
            if all(0 <= n < N for n in hosting):
                self._worker_node = hosting
                self._dead_nodes = {
                    int(x)
                    for x in np.asarray(extras.get("dist_dead_nodes", ()))
                }
        self.membership.bury(self._dead_nodes, self._cluster_time)

        self._node_runtimes = self._hosted_runtimes()
        self._host_nodes = [n for n in range(N) if self._node_runtimes[n]]
        node_counts = [self._count_phi(rs) for rs in self._node_runtimes]
        global_phi = sum(node_counts)

        # Staleness bookkeeping: the last globally synced φ and each
        # node's contribution at that sync. Restored from checkpoint
        # extras when resuming mid-window on the same node count;
        # otherwise the resume point becomes a fresh sync (exact for
        # synchronous runs, where cache/base are pure functions of z).
        cache, base = self._resolve_dist_extras(resume, N, node_counts, global_phi)
        self._phi_cache, self._node_base = cache, base
        self._node_counts = node_counts
        self._global_phi = global_phi
        self._net_base = 0.0
        if resume is not None and "dist_net_base" in resume.extras:
            self._net_base = float(np.asarray(resume.extras["dist_net_base"])[0])

        self._node_workers: list[list[GpuWorker]] = [[] for _ in range(N)]
        self._node_dev_chunks: list[list] = [[] for _ in range(N)]
        self._node_resident: list[bool] = [False] * N
        self._attach_nodes("h2d:phi", reset_clock=True)
        self._peak_device_bytes = 0

        self.server = ShardedParameterServer(
            cache.copy(), self._num_shards, self.network
        )
        if self._dead_nodes:
            self.server.rehome([
                n for n in range(N) if self.network.node_up(n)
            ])
        self._park_plan()

        state = resume if resume is not None else RunState(algo=self.name)
        self._iter_index = state.iteration
        self._sim_base = state.sim_seconds
        self.capture_state(state)
        return state

    def start_event(self, state: RunState) -> dict:
        return {
            **super().start_event(state),
            "num_nodes": self.num_nodes,
            "gpus_per_node": self.gpus_per_node,
            "inter_sync": self.config.inter_sync,
            "staleness": self.config.staleness,
        }

    def run_iteration(self, state: RunState) -> IterationOutcome:
        cfg = self.config
        N = self.num_nodes
        hyper, kcfg = self._hyper, self._kcfg
        it = self._iter_index
        self._iter_index += 1
        sync_round = cfg.staleness == 0 or it % (cfg.staleness + 1) == 0
        retry = self._transfer_retry()
        hosts = list(self._host_nodes)

        # --- failure detection: the barrier stalls on silent nodes -----
        self.membership.observe(self._cluster_time)
        if self.server is not None:
            # Checksum-verify the φ shards before any backend overwrites
            # them in lockstep, so silent corruption is repaired (and
            # counted) rather than papered over.
            self.server.verify()
        for n in hosts:
            if self.network.node_up(n):
                continue
            # A hosting node is silent: the BSP barrier stalls until the
            # failure detector rules. The stall stays on the clock even
            # though the iteration is aborted and re-run after recovery.
            t0 = self._cluster_time
            verdict_at = self.membership.await_verdict(n, t0)
            if verdict_at > t0:
                emit_counter(
                    "node_recovery_stall_seconds_total", verdict_at - t0,
                    help="Simulated seconds training stalled detecting "
                         "node failures and re-partitioning after them.",
                    phase="detect",
                )
            self._cluster_time = max(self._cluster_time, verdict_at)
            if self.membership.is_dead(n):
                raise NodeLost(n)
            # The NIC came back during the stall; training proceeds.

        # --- intra-node leg: the paper's iteration, per machine --------
        t0_node = {n: self._t_prev_node[n] for n in hosts}
        trace_marks, ready, dt_intra = {}, {}, {}
        for n in hosts:
            machine = self.machines[n]
            iv0 = len(machine.trace.intervals)
            workers = self._node_workers[n]
            local = self._node_runtimes[n]
            with span("iteration"):
                if self._node_resident[n]:
                    run_iteration_resident(
                        machine, workers, local, self._node_dev_chunks[n],
                        hyper, kcfg, cfg.sync_algorithm, retry=retry,
                    )
                else:
                    cpg = self._plan.chunks_per_gpu
                    if len(local) != cpg * len(workers):
                        cpg = None  # uneven round-robin after a migration
                    run_iteration_streaming(
                        machine, workers, local, hyper, kcfg,
                        cpg, cfg.sync_algorithm,
                        overlap=cfg.overlap_transfers, retry=retry,
                    )
                if sync_round:
                    # Leader extraction: the node-summed φ leaves GPU 0
                    # for the NIC.
                    machine.memcpy_d2h(
                        workers[0].phi_full, stream=workers[0].download,
                        label="d2h:node_phi",
                    )
                t_now = machine.synchronize()
            dt = t_now - self._t_prev_node[n]
            self._t_prev_node[n] = t_now
            trace_marks[n] = iv0
            dt_intra[n] = dt
            ready[n] = self._cluster_time + dt

        # After the intra all-reduce every GPU on node n holds the sum
        # of node n's chunk counts — the node's contribution. Nodes
        # hosting nothing (dead, their work migrated) contribute zeros.
        node_counts = [
            self._node_workers[n][0].phi_full.data.astype(np.int64, copy=True)
            if self._node_runtimes[n]
            else np.zeros_like(self._node_base[n])
            for n in range(N)
        ]
        pending = [node_counts[n] - self._node_base[n] for n in range(N)]
        self._node_counts = node_counts
        self._global_phi = sum(node_counts)

        # --- inter-node leg --------------------------------------------
        shape = node_counts[0].shape
        internode_bytes = 0.0
        if sync_round:
            with span("cluster_sync_plan"):
                plan = plan_cluster_sync(
                    self.network, shape, entry_bytes=_ENTRY_BYTES,
                    retry=retry, algorithm=cfg.inter_sync, server=self.server,
                    nodes=hosts,
                )
            if len(plan.nodes) != len(hosts):
                # The topology excluded a hosting node (declared dead
                # between the stall check and the plan): surface it as a
                # node loss so the elastic hook can migrate its work.
                missing = sorted(set(hosts) - set(plan.nodes))
                raise NodeLost(missing[0])
            # The collective runs over the surviving hosting nodes only;
            # for eth_ring that *is* the leader re-election — the ring
            # (and its segment leaders) re-forms over plan.nodes.
            result = plan.collective.allreduce(
                ClusterSyncContext(
                    network=self.network, nodes=plan.nodes,
                    node_counts=[node_counts[n] for n in plan.nodes],
                    pending=[pending[n] for n in plan.nodes],
                    ready=[ready[n] for n in plan.nodes],
                    entry_bytes=_ENTRY_BYTES, retry=retry, server=self.server,
                )
            )
            if plan.algorithm != "param_server" and self.server is not None:
                # Keep the server replica in lockstep so backends can
                # alternate mid-run without drift.
                self.server.phi = result.phi
            done = {n: result.done[i] for i, n in enumerate(plan.nodes)}
            internode_bytes = result.bytes_on_wire
            self._phi_cache = result.phi.astype(np.int64, copy=True)
            self._node_base = [c.copy() for c in node_counts]
            views = {n: self._phi_cache for n in hosts}
            self._park_plan()
        else:
            done = dict(ready)
            views = {n: self._phi_cache + pending[n] for n in hosts}

        # --- redistribution: every GPU gets its node's φ view ----------
        redist = {}
        for n in hosts:
            machine = self.machines[n]
            t_a = self._t_prev_node[n]
            self._upload_phi(
                machine, self._node_workers[n], self._as_phi_dtype(views[n]),
                "h2d:phi_global",
            )
            t_b = machine.synchronize()
            redist[n] = t_b - t_a
            self._t_prev_node[n] = t_b

        finish = {n: done[n] + redist[n] for n in hosts}
        t_next = max(finish.values())
        for n in hosts:
            emit_counter(
                "internode_stall_seconds_total", t_next - finish[n],
                help="time nodes wait at the inter-node sync barrier",
                node=str(n),
            )
        # Charge from the last *completed* iteration's finish, so any
        # recovery stall (detection, re-partition, re-shard) between the
        # two lands on this iteration's simulated duration.
        dt_iter = t_next - self._charged
        self._cluster_time = t_next
        self._charged = t_next
        net_seconds = (
            max(done.values()) - max(ready.values()) if sync_round else 0.0
        )

        sync_seconds, p2p_bytes = 0.0, 0.0
        busy: dict[str, float] = {}
        for n in hosts:
            machine = self.machines[n]
            s, p, b = iteration_trace_stats(
                machine.trace.intervals[trace_marks[n]:],
                [w.device.device_id for w in self._node_workers[n]],
                t0_node[n], self._t_prev_node[n],
            )
            sync_seconds += s
            p2p_bytes += p
            for d, f in b.items():
                busy[f"{n}.{d}"] = f
        return self._outcome(
            dt_iter, busy,
            {"sync_seconds": sync_seconds + net_seconds, "p2p_bytes": p2p_bytes},
            stats={
                "network_seconds": net_seconds,
                "compute_seconds": max(dt_intra.values()),
            },
            event={"sync_round": sync_round, "internode_bytes": internode_bytes},
        )

    def _synced_phi(self) -> np.ndarray:
        return self._global_phi

    def capture_state(self, state: RunState) -> None:
        super().capture_state(state)
        state.extras["dist_net_base"] = np.array(
            [self._net_base + self.network.total_bytes()]
        )
        G = self.gpus_per_node
        if self._dead_nodes or any(
            self._worker_node[w] != w // G for w in range(self.num_workers)
        ):
            # Only a run that has actually lost a node carries hosting
            # extras — fault-free checkpoints keep the PR 9 layout (and
            # sync-mode ones stay interchangeable across layouts).
            state.extras["dist_worker_node"] = np.array(
                self._worker_node, dtype=np.int64
            )
            state.extras["dist_dead_nodes"] = np.array(
                sorted(self._dead_nodes), dtype=np.int64
            )
            state.extras["dist_num_nodes"] = np.array(
                [self.num_nodes], dtype=np.int64
            )
        if self.config.staleness > 0:
            # Mid-window resume needs the stale global φ and each node's
            # contribution at the last sync; for synchronous runs both
            # are recomputable from z, so they are omitted (keeping the
            # checkpoint layout closer to the single-machine one).
            state.extras["dist_phi_cache"] = self._phi_cache.copy()
            for n in range(self.num_nodes):
                state.extras[f"dist_node_base_{n}"] = self._node_base[n].copy()

    def check_invariants(self, state: RunState) -> list[str]:
        return [
            msg
            for n, workers in enumerate(self._node_workers)
            if workers  # empty on a dead node / one whose work migrated
            for msg in self._replica_divergence(workers, f"node {n} ")
        ]

    def finalize(self, state: RunState, wall_seconds: float) -> TrainResult:
        N, G = self.num_nodes, self.gpus_per_node

        # Final collection per node (Alg 1 lines 17-20 / 35).
        tail = 0.0
        for n in self._host_nodes:
            machine = self.machines[n]
            workers = self._node_workers[n]
            machine.memcpy_d2h(
                workers[0].phi_full, stream=workers[0].download, label="d2h:phi"
            )
            for w, rt, dc in zip(
                workers, self._node_runtimes[n], self._node_dev_chunks[n]
            ):
                download_chunk(machine, w, rt, dc)
            t_fin = machine.synchronize()
            tail = max(tail, t_fin - self._t_prev_node[n])
        total_sim = self._sim_base + self._cluster_time + tail

        # Kernel-time breakdown over every machine's trace.
        by_kind = dict.fromkeys(BREAKDOWN_KINDS, 0.0)
        for machine in self.machines:
            for iv in machine.trace.intervals:
                if iv.kind in by_kind:
                    by_kind[iv.kind] += iv.duration
        grand = sum(by_kind.values())
        breakdown = {
            k: (v / grand if grand > 0 else 0.0) for k, v in by_kind.items()
        }

        result = self._result(
            state, wall_seconds, self.machines, total_sim, breakdown,
            machine_name=f"{N}x {self.machines[0].name}",
            num_gpus=N * G,
            num_workers=N,
            network_bytes=self._net_base + self.network.total_bytes(),
        )
        for n in range(N):
            for dc in self._node_dev_chunks[n]:
                dc.free_all()
            for w in self._node_workers[n]:
                w.free_all()
        return result

    # ------------------------------------------------------------------
    # Recovery surface
    # ------------------------------------------------------------------
    def rollback(self, state: RunState) -> None:
        self._reinstall(state, "rollback")
        N = self.num_nodes
        node_counts = [self._count_phi(rs) for rs in self._node_runtimes]
        global_phi = sum(node_counts)
        cache, base = self._resolve_dist_extras(state, N, node_counts, global_phi)
        self._phi_cache, self._node_base = cache, base
        self._node_counts, self._global_phi = node_counts, global_phi
        if self.server is not None:
            self.server.phi = cache.copy()
        advance = 0.0
        for n in self._host_nodes:
            machine = self.machines[n]
            workers = self._node_workers[n]
            self._upload_phi(
                machine, workers,
                self._as_phi_dtype(cache + node_counts[n] - base[n]),
                "h2d:phi_rollback",
            )
            self._reupload_resident(
                machine, workers, self._node_runtimes[n],
                self._node_dev_chunks[n],
            )
            t_now = machine.synchronize()
            advance = max(advance, t_now - self._t_prev_node[n])
            self._t_prev_node[n] = t_now
        # Recovery time stays on the (global) clock.
        self._cluster_time += advance
        self._iter_index = state.iteration
        state.phi = global_phi.astype(np.int32)

    def handle_device_loss(self, state: RunState) -> None:
        """Elastic recovery for the hierarchical trainer.

        Handles both fault units with one deterministic re-partition:

        - a **dead node** (heartbeat lease expired): its logical
          workers migrate intact — chunk, topic assignments, θ, RNG
          stream — to the token-lightest surviving nodes. Migrating
          whole workers instead of re-chunking keeps every token's RNG
          stream identical to the fault-free run, so the recovered
          synchronous model is bit-identical; only the wire placement
          changes.
        - a **dead GPU** inside a surviving node: the node's chunk list
          is redistributed round-robin over its remaining GPUs (the
          multi-node analogue of the single-machine elastic
          re-partition) and the node's reduce tree is re-planned at the
          new fan-in by the per-machine sync planner.

        Afterwards the parameter server re-shards φ over the surviving
        placement from an exact recount, any open staleness window is
        drained at a fresh sync point (the dead node's pending Δφ is
        folded in exactly once, deterministically, because z comes from
        the snapshot), and the refreshed hosting plan is parked back in
        the replicated server. All recovery traffic stays on the
        simulated clock.
        """
        N, W = self.num_nodes, self.num_workers
        M = self._plan.chunks_per_gpu
        t_start = self._cluster_time
        self._restore_dist(state)

        dead = set(self._dead_nodes) | set(self.membership.dead_nodes)
        survivors = [
            n for n in range(N)
            if n not in dead and self.machines[n].alive_gpus
        ]
        if not survivors:
            raise NodeLost(
                min(dead) if dead else 0,
                "no surviving nodes to migrate work to",
            )

        # The hosting plan parked in the replicated server survives the
        # node that owned any given assignment; the snapshot extras are
        # the fallback when no server is wired yet.
        hosting = list(self._worker_node)
        parked = (
            self.server.parked("chunk_hosting")
            if self.server is not None else None
        )
        if parked is not None and parked.size == W:
            parked_map = [int(x) for x in parked]
            if all(0 <= n < N for n in parked_map):
                hosting = parked_map

        wtok = [
            sum(self._runtimes[m * W + w].chunk.num_tokens for m in range(M))
            for w in range(W)
        ]
        self._worker_node = migrate_workers(hosting, wtok, survivors)
        self._dead_nodes = dead

        # Tear down every node's device state and rebuild it under the
        # new hosting map on the alive GPUs only.
        for n in range(N):
            for dc in self._node_dev_chunks[n]:
                dc.free_all()
            for w in self._node_workers[n]:
                w.free_all()
        self._node_runtimes = self._hosted_runtimes()
        self._host_nodes = [n for n in range(N) if self._node_runtimes[n]]
        node_counts = [self._count_phi(rs) for rs in self._node_runtimes]
        global_phi = sum(node_counts)
        # Fresh sync point: the recount covers every token's current
        # assignment, so any open staleness window — including the dead
        # node's — is drained exactly once.
        self._phi_cache = global_phi.copy()
        self._node_base = [c.copy() for c in node_counts]
        self._node_counts, self._global_phi = node_counts, global_phi
        advance = self._attach_nodes("h2d:phi_repartition")
        self._cluster_time += advance

        if self.server is not None:
            _, done = self.server.reshard(self._phi_cache, self._cluster_time)
            self._cluster_time = max(self._cluster_time, done)
            self._park_plan()

        stall = self._cluster_time - t_start
        if stall > 0:
            emit_counter(
                "node_recovery_stall_seconds_total", stall,
                help="Simulated seconds training stalled detecting "
                     "node failures and re-partitioning after them.",
                phase="repartition",
            )
        emit_gauge(
            "cluster_nodes_hosting", float(len(self._host_nodes)),
            help="cluster nodes currently hosting CuLDA workers",
        )
        self._iter_index = state.iteration
        # Refresh the state the engine will snapshot: φ reflects the
        # recount and extras carry the new hosting map / dead set.
        self.capture_state(state)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hosted_runtimes(self) -> list[list]:
        """Per-node chunk-runtime lists under the current hosting map,
        round-major then worker-ascending — identical to the pristine
        ``m*W + n*G + j`` order while hosting is the identity."""
        W, M = self.num_workers, self._plan.chunks_per_gpu
        by_node: list[list] = [[] for _ in range(self.num_nodes)]
        for m in range(M):
            for w in range(W):
                by_node[self._worker_node[w]].append(self._runtimes[m * W + w])
        return by_node

    def _attach_nodes(self, label: str, reset_clock: bool = False) -> float:
        """(Re)create GPU workers on every hosting node's alive GPUs,
        upload the node's φ view (and resident chunks), and leave every
        machine synchronized. Returns the largest per-node clock
        advance (zero when resetting clocks at init)."""
        hyper, kcfg = self._hyper, self._kcfg
        cache, base = self._phi_cache, self._node_base
        hosting = set(self._host_nodes)
        advance = 0.0
        for n in range(self.num_nodes):
            if n not in hosting:
                self._node_workers[n] = []
                self._node_dev_chunks[n] = []
                self._node_resident[n] = False
                continue
            machine = self.machines[n]
            local = self._node_runtimes[n]
            workers = [
                GpuWorker(dev, hyper.num_topics, self.corpus.num_words, kcfg)
                for dev in machine.alive_gpus
            ]
            if not workers:
                raise FaultError(f"node {n} hosts work but has no alive GPUs")
            self._upload_phi(
                machine, workers,
                self._as_phi_dtype(cache + self._node_counts[n] - base[n]),
                label,
            )
            resident = len(local) == len(workers)
            dev_chunks = []
            if resident:
                dev_chunks = [
                    upload_chunk(machine, workers[j], local[j])
                    for j in range(len(workers))
                ]
            t_now = machine.synchronize()
            if reset_clock:
                machine.reset_clock()
                t_now = 0.0
            advance = max(advance, t_now - self._t_prev_node[n])
            self._t_prev_node[n] = t_now
            self._node_workers[n] = workers
            self._node_dev_chunks[n] = dev_chunks
            self._node_resident[n] = resident
        return advance

    def _restore_dist(self, state: RunState) -> None:
        """Reinstall a known-good snapshot ahead of a re-partition:
        topic assignments, θ, RNG streams, the hosting map, and the
        buried node set."""
        self._reinstall(state, "snapshot")
        hosting = state.extras.get("dist_worker_node")
        if hosting is not None and len(hosting) == self.num_workers:
            self._worker_node = [int(x) for x in np.asarray(hosting)]
        dead = state.extras.get("dist_dead_nodes")
        if dead is not None:
            self._dead_nodes = {int(x) for x in np.asarray(dead)}
        self.membership.bury(self._dead_nodes, self._cluster_time)

    def _park_plan(self) -> None:
        """Park the chunk-hosting map and per-node φ bases in the
        replicated parameter server, so the plan survives the node that
        owned any given assignment (docs/ROBUSTNESS.md §8)."""
        if self.server is None:
            return
        self.server.park(
            "chunk_hosting", np.array(self._worker_node, dtype=np.int64)
        )
        for n in range(self.num_nodes):
            self.server.park(f"node_base_{n}", self._node_base[n])

    def _resolve_dist_extras(
        self,
        state: RunState | None,
        num_nodes: int,
        node_counts: list[np.ndarray],
        global_phi: np.ndarray,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """(stale global φ, per-node base) from checkpoint extras when
        they match this layout, else a fresh sync point (exact for
        synchronous runs)."""
        extras = state.extras if state is not None else {}
        cache = extras.get("dist_phi_cache")
        bases = [extras.get(f"dist_node_base_{n}") for n in range(num_nodes)]
        if cache is not None and all(b is not None for b in bases):
            return (
                np.asarray(cache).astype(np.int64),
                [np.asarray(b).astype(np.int64) for b in bases],
            )
        return global_phi.copy(), [c.copy() for c in node_counts]
