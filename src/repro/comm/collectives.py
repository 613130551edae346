"""The pluggable collectives behind model synchronization (paper §5.2).

After every iteration the per-GPU *partial* φ replicas (each holding
only its own chunks' counts) must be summed into the full φ and
redistributed. The paper rejects the intuitive gather-to-CPU approach
(the CPU adds slower than GPUs, and the host link becomes a serial
bottleneck) in favour of a **binary reduce tree over peer-to-peer
copies** — ⌈log₂ G⌉ steps whose transfers use disjoint GPU pairs and
therefore disjoint links (Fig 4) — followed by a broadcast of the
root's result. Which strategy wins, though, depends on the fabric: on
NVLink the tree's few fat hops are unbeatable, on a dual-socket PCIe
box the inter-socket bridge is the bottleneck and a **hierarchical**
scheme (intra-socket tree + inter-socket ring between socket leaders)
halves the bridge traffic, and with dead peer links the rejected
CPU-gather becomes the only path left.

This module provides each strategy twice:

- as an **executable** primitive (``reduce_phi_tree``, ``broadcast_phi``,
  ``ring_allreduce_phi``, ``cpu_gather_sync``,
  ``hierarchical_allreduce_phi``) that works on arbitrary *sublists* of
  replicas — positions carry their devices, so the hierarchical
  composition and the elastic G−1 path fall out for free; and
- as a :class:`Collective` in :data:`COLLECTIVES` with a cost
  ``estimate`` — the analytic mirror of the simulator's link/kernel
  charges — that :func:`~repro.comm.planner.plan_sync` ranks per
  topology and payload.

Because φ is summed in exact integer arithmetic, every collective is
bit-identical: the planner may pick freely on cost alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.comm.topology import Topology
from repro.comm.transfer import TransferRetry, resilient_p2p, with_retry
from repro.core.kernels import KernelConfig, phi_reduce_cost
from repro.gpusim.costmodel import KernelCost
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import DeviceArray
from repro.gpusim.platform import Machine
from repro.gpusim.stream import Stream
from repro.telemetry.context import emit_counter, emit_observe

__all__ = [
    "SyncContext",
    "CostEstimate",
    "INFEASIBLE",
    "Collective",
    "COLLECTIVES",
    "get_collective",
    "reduce_phi_tree",
    "broadcast_phi",
    "cpu_gather_sync",
    "ring_allreduce_phi",
    "hierarchical_allreduce_phi",
]


# ----------------------------------------------------------------------
# Execution context
# ----------------------------------------------------------------------

@dataclass
class SyncContext:
    """Everything a collective needs to all-reduce the φ replicas.

    ``partials[g]`` / ``fulls[g]`` / ``scratch[g]`` / ``streams[g]``
    belong to the same (arbitrary) device — positions are logical ranks,
    devices come from the arrays, so an elastic run over surviving GPUs
    {0, 2, 3} needs no renumbering.
    """

    machine: Machine
    partials: list
    fulls: list
    scratch: list
    streams: list
    config: KernelConfig
    retry: TransferRetry | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.partials[0].shape

    @property
    def devices(self) -> tuple[int, ...]:
        return tuple(p.device.device_id for p in self.partials)


# ----------------------------------------------------------------------
# Executable primitives
# ----------------------------------------------------------------------

def _add_kernel(dst: DeviceArray, src: DeviceArray, config: KernelConfig) -> KernelLaunch:
    """dst += src (element-wise integer add on the destination GPU)."""
    K, V = dst.shape

    def body() -> None:
        dst.data += src.data

    return KernelLaunch(
        fn=body,
        cost=phi_reduce_cost(K, V, config),
        label="phi_add",
        kind="sync",
    )


def reduce_phi_tree(
    machine: Machine,
    partials: list[DeviceArray],
    scratch: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> DeviceArray:
    """Tree-reduce the partial replicas into ``partials[0]`` (Fig 4).

    At stride s = 1, 2, 4, … position ``i+s`` sends its accumulated
    partial to position ``i``'s scratch buffer, and position ``i`` adds
    it in. Transfers within one step use disjoint device pairs, so they
    proceed in parallel — the reduction completes in ⌈log₂ G⌉ serial
    steps. Positions need not be device ids: the hierarchical collective
    runs this on per-socket sublists.

    Returns ``partials[0]``, which afterwards holds Σ_g φ_g.
    """
    G = len(partials)
    if not (len(scratch) == len(streams) == G):
        raise ValueError("partials, scratch, and streams must align")
    stride = 1
    while stride < G:
        for i in range(0, G - stride, 2 * stride):
            sender = i + stride
            src_dev = partials[sender].device.device_id
            dst_dev = partials[i].device.device_id
            ready = streams[sender].record(label=f"phi_ready[{src_dev}]")
            streams[i].wait_event(ready)
            c_start, _ = resilient_p2p(
                machine, scratch[i], partials[sender], streams[i],
                streams[sender], "phi_reduce_copy", retry,
            )
            emit_counter(
                "sync_bytes_total", partials[sender].nbytes,
                help="bytes moved per link during model synchronization",
                link=f"{src_dev}->{dst_dev}", phase="reduce",
            )
            _, a_end, _ = _add_kernel(partials[i], scratch[i], config).launch(
                streams[i]
            )
            emit_observe(
                "sync_reduce_step_seconds", a_end - c_start,
                help="simulated copy+add time of one reduce-tree step",
                stride=str(stride),
            )
        stride *= 2
    return partials[0]


def broadcast_phi(
    machine: Machine,
    source: DeviceArray,
    destinations: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> None:
    """Tree-broadcast *source* (the reduced φ at position 0) everywhere.

    Inverse of the reduce tree: at stride 1, 2, 4, … each position that
    already has the result forwards it, doubling the holder set each
    step — again ⌈log₂ G⌉ serial steps.

    ``destinations[g]`` is position *g*'s full-φ buffer;
    ``destinations[0]`` lives on the same device as *source* and
    receives a device-local copy (charged as a kernel, not a link
    transfer).
    """
    G = len(destinations)
    if len(streams) != G:
        raise ValueError("destinations and streams must align")
    if destinations[0].device is not source.device:
        raise ValueError("destinations[0] must live on the source device")

    def local_copy() -> None:
        destinations[0].data[...] = source.data

    K, V = source.shape
    n = float(K) * V * config.phi_bytes
    KernelLaunch(
        fn=local_copy,
        cost=KernelCost(bytes_read=n, bytes_written=n),
        label="phi_local_copy",
        kind="sync",
    ).launch(streams[0])

    # Doubling pattern: holders {0} -> {0,1} -> {0,1,2,3} -> ...
    have = [0]
    step = 1
    while step < G:
        new_holders = []
        for h in have:
            peer = h + step
            if peer < G:
                src_dev = destinations[h].device.device_id
                dst_dev = destinations[peer].device.device_id
                ready = streams[h].record(label=f"phi_have[{src_dev}]")
                streams[peer].wait_event(ready)
                resilient_p2p(
                    machine, destinations[peer], destinations[h],
                    streams[peer], streams[h], "phi_broadcast_copy", retry,
                )
                emit_counter(
                    "sync_bytes_total", destinations[h].nbytes,
                    help="bytes moved per link during model synchronization",
                    link=f"{src_dev}->{dst_dev}", phase="broadcast",
                )
                new_holders.append(peer)
        have.extend(new_holders)
        step *= 2


def cpu_gather_sync(
    machine: Machine,
    partials: list[DeviceArray],
    destinations: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> None:
    """The intuitive baseline the paper rejects (§5.2): pull every
    replica to the host, add on the CPU, push the sum back to every GPU.

    All transfers contend on the host links and the adds run at CPU
    speed; the ablation bench shows the gap versus the GPU tree. It is
    also the path of last resort when peer links are down — no leg of
    it touches the P2P fabric.
    """
    G = len(partials)
    host_copies: list[np.ndarray] = []
    for g in range(G):
        dev = partials[g].device.device_id
        # The gather lands in the host model arrays — pageable memory,
        # so it runs at the staging-copy rate (unlike the pinned chunk
        # buffers WorkSchedule2 streams through).
        _, _, arr = with_retry(
            lambda g=g: machine.memcpy_d2h(
                partials[g], stream=streams[g], label="phi_gather", pinned=False
            ),
            streams[g], "phi_gather", retry, devices=(dev,),
        )
        emit_counter(
            "sync_bytes_total", partials[g].nbytes,
            help="bytes moved per link during model synchronization",
            link=f"{dev}->host", phase="gather",
        )
        host_copies.append(arr)
    machine.synchronize()

    K, V = partials[0].shape
    n = float(K) * V

    def host_add() -> np.ndarray:
        total = host_copies[0].astype(np.int64)
        for arr in host_copies[1:]:
            total += arr
        return total.astype(partials[0].dtype)

    total = machine.host_compute(
        host_add,
        KernelCost(
            bytes_read=G * n * config.phi_bytes,
            bytes_written=n * config.phi_bytes,
            flops=(G - 1) * n,
        ),
        label="phi_host_add",
    )
    for g in range(G):
        dev = destinations[g].device.device_id
        with_retry(
            lambda g=g: machine.memcpy_h2d(
                destinations[g], total, stream=streams[g], label="phi_scatter",
                pinned=False,
            ),
            streams[g], "phi_scatter", retry, devices=(dev,),
        )
        emit_counter(
            "sync_bytes_total", destinations[g].nbytes,
            help="bytes moved per link during model synchronization",
            link=f"host->{dev}", phase="scatter",
        )


def ring_allreduce_phi(
    machine: Machine,
    partials: list[DeviceArray],
    fulls: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> None:
    """Ring all-reduce — the alternative the tree is benchmarked against.

    Standard two-phase ring (reduce-scatter then all-gather) over φ
    split into G row segments: 2·(G−1) steps, each moving only 1/G of
    the replica per link, with every neighbouring link active in
    parallel. At large G this moves less data per link than the tree
    (2·(G−1)/G replicas vs ⌈log₂G⌉), at the cost of more latency-bound
    steps. Works on
    arbitrary sublists (the hierarchical collective rings the socket
    leaders).

    On completion every position's ``fulls[g]`` (and its ``partials[g]``)
    holds Σ_g φ_g.
    """
    G = len(partials)
    if not (len(fulls) == len(streams) == G):
        raise ValueError("partials, fulls, and streams must align")
    K, V = partials[0].shape
    phi_b = config.phi_bytes

    def local_full_copy(g: int) -> None:
        def body(g: int = g) -> None:
            fulls[g].data[...] = partials[g].data

        n = float(K) * V * phi_b
        KernelLaunch(
            body,
            KernelCost(bytes_read=n, bytes_written=n),
            "phi_local_copy",
            kind="sync",
        ).launch(streams[g])

    if G == 1:
        local_full_copy(0)
        return

    # Row-segment boundaries.
    edges = [K * i // G for i in range(G + 1)]
    seg_rows = [edges[i + 1] - edges[i] for i in range(G)]
    max_rows = max(seg_rows)

    send_bufs = [
        DeviceArray(partials[g].device, (max_rows, V), partials[g].dtype,
                    label=f"ring_send{g}")
        for g in range(G)
    ]
    recv_bufs = [
        DeviceArray(partials[g].device, (max_rows, V), partials[g].dtype,
                    label=f"ring_recv{g}")
        for g in range(G)
    ]

    def run_phase(step: int, reduce_phase: bool) -> None:
        """One ring step: stage → transfer → combine, all GPUs."""
        seg_bytes = float(max_rows) * V * phi_b
        stage_events = []
        send_chunk = [0] * G
        recv_chunk = [0] * G
        for g in range(G):
            if reduce_phase:
                send_chunk[g] = (g - step) % G
                recv_chunk[g] = (g - step - 1) % G
            else:
                send_chunk[g] = (g + 1 - step) % G
                recv_chunk[g] = (g - step) % G

        for g in range(G):
            c = send_chunk[g]
            lo, hi = edges[c], edges[c + 1]

            def stage(g: int = g, lo: int = lo, hi: int = hi) -> None:
                send_bufs[g].data[: hi - lo] = partials[g].data[lo:hi]

            KernelLaunch(
                stage,
                KernelCost(bytes_read=seg_bytes, bytes_written=seg_bytes),
                "ring_stage",
                kind="sync",
            ).launch(streams[g])
            stage_events.append(streams[g].record(label=f"ring_staged[{g}]"))

        for g in range(G):
            dst = (g + 1) % G
            streams[dst].wait_event(stage_events[g])
            resilient_p2p(
                machine, recv_bufs[dst], send_bufs[g], streams[dst],
                streams[g], "ring_transfer", retry,
            )
            emit_counter(
                "sync_bytes_total", send_bufs[g].nbytes,
                help="bytes moved per link during model synchronization",
                link=(
                    f"{send_bufs[g].device.device_id}"
                    f"->{recv_bufs[dst].device.device_id}"
                ),
                phase="ring_reduce" if reduce_phase else "ring_gather",
            )

        for g in range(G):
            c = recv_chunk[g]
            lo, hi = edges[c], edges[c + 1]

            def combine(g: int = g, lo: int = lo, hi: int = hi) -> None:
                if reduce_phase:
                    partials[g].data[lo:hi] += recv_bufs[g].data[: hi - lo]
                else:
                    partials[g].data[lo:hi] = recv_bufs[g].data[: hi - lo]

            KernelLaunch(
                combine,
                KernelCost(
                    bytes_read=2 * seg_bytes if reduce_phase else seg_bytes,
                    bytes_written=seg_bytes,
                    flops=float(max_rows) * V if reduce_phase else 0.0,
                ),
                "ring_combine",
                kind="sync",
            ).launch(streams[g])

    for step in range(G - 1):
        run_phase(step, reduce_phase=True)
    for step in range(G - 1):
        run_phase(step, reduce_phase=False)
    for g in range(G):
        local_full_copy(g)
    for buf in send_bufs + recv_bufs:
        buf.free()


def _socket_groups(machine: Machine, arrays: list[DeviceArray]) -> list[list[int]]:
    """Positions in *arrays* grouped by their device's socket
    (ascending socket id, original order within a group)."""
    by_socket: dict[int, list[int]] = {}
    for pos, arr in enumerate(arrays):
        by_socket.setdefault(
            machine.socket_of(arr.device.device_id), []
        ).append(pos)
    return [by_socket[s] for s in sorted(by_socket)]


def hierarchical_allreduce_phi(
    machine: Machine,
    partials: list[DeviceArray],
    fulls: list[DeviceArray],
    scratch: list[DeviceArray],
    streams: list[Stream],
    config: KernelConfig,
    retry: TransferRetry | None = None,
) -> None:
    """Topology-aware all-reduce: intra-socket tree, inter-socket ring.

    The EZLDA-style composition for dual-socket PCIe boxes: GPUs under
    one PCIe switch first tree-reduce at switch speed into a per-socket
    *leader*; the leaders then ring-all-reduce across the (slow)
    inter-socket bridge, moving each byte over the bridge only once per
    direction instead of the tree's repeated full-replica hops; finally
    each leader tree-broadcasts the full model back down its switch.

    Degenerates gracefully: one socket ⇒ tree + broadcast only; one GPU
    per socket ⇒ a pure ring. Bit-identical to every other collective
    (integer adds commute).
    """
    G = len(partials)
    if not (len(fulls) == len(scratch) == len(streams) == G):
        raise ValueError("partials, fulls, scratch, and streams must align")
    groups = _socket_groups(machine, partials)

    # Phase 1: intra-socket tree reduce into each group's leader.
    for grp in groups:
        if len(grp) > 1:
            reduce_phi_tree(
                machine,
                [partials[p] for p in grp],
                [scratch[p] for p in grp],
                [streams[p] for p in grp],
                config, retry=retry,
            )

    # Phase 2: inter-socket ring all-reduce among the socket leaders
    # (a single leader degenerates to the local full-copy).
    leaders = [grp[0] for grp in groups]
    ring_allreduce_phi(
        machine,
        [partials[p] for p in leaders],
        [fulls[p] for p in leaders],
        [streams[p] for p in leaders],
        config, retry=retry,
    )

    # Phase 3: intra-socket broadcast of the full model from each leader.
    for grp in groups:
        if len(grp) > 1:
            broadcast_phi(
                machine,
                fulls[grp[0]],
                [fulls[p] for p in grp],
                [streams[p] for p in grp],
                config, retry=retry,
            )


# ----------------------------------------------------------------------
# Cost estimation (the analytic mirror of the simulator's charges)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CostEstimate:
    """Predicted footprint of one collective on one topology.

    ``seconds`` is the predicted simulated completion time (``inf``
    when the topology offers no usable path), ``bytes_on_wire`` the
    link bytes as charged (pageable staging counts 2×, matching the
    simulator), ``steps`` the serial step count.
    """

    seconds: float
    bytes_on_wire: float
    steps: int

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.seconds)


#: The estimate of a collective with no usable path on a topology.
INFEASIBLE = CostEstimate(seconds=math.inf, bytes_on_wire=0.0, steps=0)


def _kernel_seconds(machine: Machine, dev: int, cost: KernelCost) -> float:
    return machine.cost_model.kernel_seconds(machine.gpus[dev].spec, cost)


def _copy_cost(K: int, V: int, phi_b: float) -> KernelCost:
    n = float(K) * V * phi_b
    return KernelCost(bytes_read=n, bytes_written=n)


def _p2p_path(
    topo: Topology,
    retry: TransferRetry | None,
    src: int,
    dst: int,
    nbytes: float,
) -> tuple[float, float]:
    """(seconds, wire_bytes) for one peer message, pricing the degraded
    host re-route when the peer link is permanently down."""
    info = topo.p2p_info(src, dst)
    if info.up:
        return info.transfer_seconds(nbytes), nbytes
    if retry is None or not retry.host_fallback:
        return math.inf, 0.0
    hs, hd = topo.host[src], topo.host[dst]
    if not (hs.up and hd.up):
        return math.inf, 0.0
    # The runtime exhausts the peer-link retry budget (backoff stalls)
    # before falling back, then stages through pageable host memory,
    # which charges 2x the payload per hop.
    seconds = (
        retry.backoff_total_seconds
        + hs.transfer_seconds(2.0 * nbytes)
        + hd.transfer_seconds(2.0 * nbytes)
    )
    return seconds, 4.0 * nbytes


# The tree estimates track ``ready[dev]``: when device *dev*'s sync
# stream is free (and, once it holds the data, when it can send). A
# peer copy runs on the receiver's stream after the sender's event, so
# it starts at ``max(ready[dst], ready[src])`` — a holder's sends never
# queue behind one another, exactly as the simulator times them.

def _tree_reduce_estimate(
    machine: Machine,
    topo: Topology,
    devs: list[int],
    ready: dict[int, float],
    nbytes: float,
    add_cost: KernelCost,
    retry: TransferRetry | None,
) -> tuple[float, int]:
    """Advance *ready* through :func:`reduce_phi_tree` over *devs*;
    returns (wire bytes, serial steps)."""
    wire = 0.0
    steps = 0
    G = len(devs)
    stride = 1
    while stride < G:
        for i in range(0, G - stride, 2 * stride):
            dst, src = devs[i], devs[i + stride]
            s, w = _p2p_path(topo, retry, src, dst, nbytes)
            wire += w
            ready[dst] = (
                max(ready[dst], ready[src]) + s
                + _kernel_seconds(machine, dst, add_cost)
            )
        steps += 1
        stride *= 2
    return wire, steps


def _broadcast_estimate(
    machine: Machine,
    topo: Topology,
    devs: list[int],
    ready: dict[int, float],
    nbytes: float,
    copy_cost: KernelCost,
    retry: TransferRetry | None,
) -> tuple[float, int]:
    """Advance *ready* through :func:`broadcast_phi` from ``devs[0]``;
    returns (wire bytes, serial steps)."""
    ready[devs[0]] += _kernel_seconds(machine, devs[0], copy_cost)
    wire = 0.0
    steps = 0
    G = len(devs)
    step = 1
    while step < G:
        # Holders are positions [0, step); each forwards to h + step.
        for h in range(min(step, G - step)):
            src, dst = devs[h], devs[h + step]
            s, w = _p2p_path(topo, retry, src, dst, nbytes)
            wire += w
            ready[dst] = max(ready[dst], ready[src]) + s
        steps += 1
        step *= 2
    return wire, steps


def _ring_estimate(
    machine: Machine,
    topo: Topology,
    devs: list[int],
    K: int,
    V: int,
    config: KernelConfig,
    retry: TransferRetry | None,
) -> CostEstimate:
    phi_b = config.phi_bytes
    copy_s = _kernel_seconds(machine, devs[0], _copy_cost(K, V, phi_b))
    G = len(devs)
    if G == 1:
        return CostEstimate(copy_s, 0.0, 0)
    edges = [K * i // G for i in range(G + 1)]
    max_rows = max(edges[i + 1] - edges[i] for i in range(G))
    seg = float(max_rows) * V * phi_b
    stage_s = _kernel_seconds(
        machine, devs[0], KernelCost(bytes_read=seg, bytes_written=seg)
    )
    reduce_s = _kernel_seconds(
        machine, devs[0],
        KernelCost(
            bytes_read=2 * seg, bytes_written=seg, flops=float(max_rows) * V
        ),
    )
    gather_s = _kernel_seconds(
        machine, devs[0], KernelCost(bytes_read=seg, bytes_written=seg)
    )
    link_times = []
    step_wire = 0.0
    for g in range(G):
        s, w = _p2p_path(topo, retry, devs[g], devs[(g + 1) % G], seg)
        link_times.append(s)
        step_wire += w
    slowest = max(link_times)
    if not math.isfinite(slowest):
        return INFEASIBLE
    total = (
        (G - 1) * (stage_s + slowest + reduce_s)
        + (G - 1) * (stage_s + slowest + gather_s)
        + copy_s
    )
    return CostEstimate(total, 2.0 * (G - 1) * step_wire, 2 * (G - 1))


def _cpu_gather_estimate(
    machine: Machine,
    topo: Topology,
    devs: list[int],
    K: int,
    V: int,
    config: KernelConfig,
) -> CostEstimate:
    n_el = float(K) * V
    n = n_el * config.phi_bytes
    by_link: dict[str, list] = {}
    for d in devs:
        info = topo.host[d]
        if not info.up:
            return INFEASIBLE
        by_link.setdefault(info.name, []).append(info)
    # Pageable staging charges 2x; devices sharing an uplink serialize.
    phase_s = max(
        sum(i.transfer_seconds(2.0 * n) for i in infos)
        for infos in by_link.values()
    )
    host_add = machine.cost_model.kernel_seconds(
        machine.host_spec,
        KernelCost(
            bytes_read=len(devs) * n,
            bytes_written=n,
            flops=(len(devs) - 1) * n_el,
        ),
    )
    total = phase_s + host_add + phase_s
    return CostEstimate(total, 4.0 * n * len(devs), 2 * len(devs) + 1)


# ----------------------------------------------------------------------
# Collective interface + the ordered candidates
# ----------------------------------------------------------------------

class Collective:
    """One synchronization strategy: executable + cost-estimable."""

    name: str = ""

    def allreduce(self, ctx: SyncContext) -> None:
        """Sum every ``ctx.partials`` into every ``ctx.fulls``."""
        raise NotImplementedError

    def estimate(
        self,
        machine: Machine,
        topo: Topology,
        shape: tuple[int, int],
        config: KernelConfig,
        retry: TransferRetry | None = None,
    ) -> CostEstimate:
        """Predicted cost of :meth:`allreduce` on *topo* for a (K, V)
        payload — the planner's ranking input."""
        raise NotImplementedError


class TreeCollective(Collective):
    """Reduce tree into position 0 + tree broadcast (paper Fig 4)."""

    name = "gpu_tree"

    def allreduce(self, ctx: SyncContext) -> None:
        root = reduce_phi_tree(
            ctx.machine, ctx.partials, ctx.scratch, ctx.streams, ctx.config,
            retry=ctx.retry,
        )
        broadcast_phi(
            ctx.machine, root, ctx.fulls, ctx.streams, ctx.config,
            retry=ctx.retry,
        )

    def estimate(self, machine, topo, shape, config, retry=None) -> CostEstimate:
        K, V = shape
        nbytes = float(K) * V * config.phi_bytes
        devs = list(topo.devices)
        ready = dict.fromkeys(devs, 0.0)
        r_w, r_steps = _tree_reduce_estimate(
            machine, topo, devs, ready, nbytes, phi_reduce_cost(K, V, config),
            retry,
        )
        b_w, b_steps = _broadcast_estimate(
            machine, topo, devs, ready, nbytes,
            _copy_cost(K, V, config.phi_bytes), retry,
        )
        return CostEstimate(max(ready.values()), r_w + b_w, r_steps + b_steps)


class RingCollective(Collective):
    """Two-phase ring all-reduce (reduce-scatter + all-gather)."""

    name = "ring"

    def allreduce(self, ctx: SyncContext) -> None:
        ring_allreduce_phi(
            ctx.machine, ctx.partials, ctx.fulls, ctx.streams, ctx.config,
            retry=ctx.retry,
        )

    def estimate(self, machine, topo, shape, config, retry=None) -> CostEstimate:
        K, V = shape
        return _ring_estimate(
            machine, topo, list(topo.devices), K, V, config, retry
        )


class CpuGatherCollective(Collective):
    """Gather to the host, add on the CPU, scatter back (§5.2's rejected
    baseline — and the only all-host path when peer links are down)."""

    name = "cpu_gather"

    def allreduce(self, ctx: SyncContext) -> None:
        cpu_gather_sync(
            ctx.machine, ctx.partials, ctx.fulls, ctx.streams, ctx.config,
            retry=ctx.retry,
        )

    def estimate(self, machine, topo, shape, config, retry=None) -> CostEstimate:
        K, V = shape
        return _cpu_gather_estimate(
            machine, topo, list(topo.devices), K, V, config
        )


class HierarchicalCollective(Collective):
    """Intra-socket tree + inter-socket leader ring + intra-socket
    broadcast — the dual-socket PCIe specialist."""

    name = "hierarchical"

    def allreduce(self, ctx: SyncContext) -> None:
        hierarchical_allreduce_phi(
            ctx.machine, ctx.partials, ctx.fulls, ctx.scratch, ctx.streams,
            ctx.config, retry=ctx.retry,
        )

    def estimate(self, machine, topo, shape, config, retry=None) -> CostEstimate:
        K, V = shape
        nbytes = float(K) * V * config.phi_bytes
        add_cost = phi_reduce_cost(K, V, config)
        copy_cost = _copy_cost(K, V, config.phi_bytes)
        groups = [list(g) for g in topo.sockets]
        ready = dict.fromkeys(topo.devices, 0.0)
        wire = 0.0
        p1_steps = p3_steps = 0

        # Phase 1: per-socket tree reductions run in parallel.
        for grp in groups:
            w, st = _tree_reduce_estimate(
                machine, topo, grp, ready, nbytes, add_cost, retry
            )
            wire += w
            p1_steps = max(p1_steps, st)

        # Phase 2: the leader ring is priced from the last leader's
        # ready time and ends on every leader together — exact for the
        # one or two sockets every platform factory builds.
        leaders = [grp[0] for grp in groups]
        ring = _ring_estimate(machine, topo, leaders, K, V, config, retry)
        ring_end = max(ready[d] for d in leaders) + ring.seconds
        ready.update(dict.fromkeys(leaders, ring_end))
        wire += ring.bytes_on_wire

        # Phase 3: per-socket broadcasts run in parallel.
        for grp in groups:
            if len(grp) > 1:
                w, st = _broadcast_estimate(
                    machine, topo, grp, ready, nbytes, copy_cost, retry
                )
                wire += w
                p3_steps = max(p3_steps, st)

        return CostEstimate(
            max(ready.values()), wire, p1_steps + ring.steps + p3_steps
        )


#: Every collective, in ``auto``'s tie-break order. The seed default
#: comes first, so it wins every cost tie — auto can never be slower
#: than the old hard-wired gpu_tree on equal terms. ``obs`` records a
#: pick as its index here, so the order is part of the bench baseline.
COLLECTIVES: tuple[Collective, ...] = (
    TreeCollective(),
    RingCollective(),
    CpuGatherCollective(),
    HierarchicalCollective(),
)


def get_collective(name: str) -> Collective:
    """Look a collective up by name."""
    for collective in COLLECTIVES:
        if collective.name == name:
            return collective
    raise ValueError(
        f"unknown sync algorithm {name!r}; choose from "
        + ", ".join(("auto", *(c.name for c in COLLECTIVES)))
    )
