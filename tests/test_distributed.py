"""Distributed-equivalence suite for multi-node CuLDA.

The central claim of the hierarchical N×G trainer is that distribution
is *invisible to the numerics*: the corpus is chunked once over all
``W = N × G`` workers (so chunk ids and RNG streams are
layout-invariant) and φ is combined in exact integer arithmetic, so
synchronous training is **bit-identical** across

- worker layouts with the same total worker count (1×4 ≡ 2×2 ≡ 4×1),
- inter-node backends (``eth_ring`` ≡ ``param_server`` ≡ ``auto``),
- checkpoint/resume splits, including resuming a single-machine
  checkpoint on a multi-node cluster and vice versa.

Bounded staleness (``staleness > 0``) relaxes the schedule but must
conserve tokens every iteration (read-your-writes) and converge to a
likelihood within tolerance of the synchronous run; a mid-window
checkpoint must resume bit-identically from its extras.

One node is not a cluster: ``--nodes 1`` is :class:`CuLDA`, and
``DistributedCuLDA`` refuses fewer than two machines. The
single-machine ≡ multi-node property is the layout equivalence above
(``CuLDA`` 1×4 ≡ 2×2 ≡ 4×1) plus the cross-boundary resume tests.

The Hypothesis section drives the cluster sync planner over randomized
topologies (node counts, dead nodes, degraded links, payload shapes)
and checks the planner's contract: ``auto`` picks the
measured-cheapest feasible backend, predictions equal measurements
(replay-exact cost model), and no plan or message ever touches a
detector-dead node.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.comm import (
    ClusterSyncContext,
    cluster_collective_names,
    cluster_sync_choices,
    get_cluster_collective,
    plan_cluster_sync,
)
from repro.core import CuLDA, DistributedCuLDA, TrainConfig
from repro.corpus.synthetic import pubmed_like
from repro.engine.recovery import TrainingFailure
from repro.faults.plan import FaultPlan, FaultSpec, cluster_chaos_plan
from repro.gpusim.errors import SyncPathError
from repro.gpusim.platform import make_machine

pytestmark = pytest.mark.distributed


@pytest.fixture(scope="module")
def corpus():
    return pubmed_like(12_000, 8, seed=3)


def _trainer(corpus, nodes, gpus, **config_kwargs):
    cfg = TrainConfig(num_topics=16, iterations=4, seed=0, **config_kwargs)
    return DistributedCuLDA(
        corpus,
        [make_machine("pascal", gpus) for _ in range(nodes)],
        config=cfg,
    )


def _assert_same_model(a, b):
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.topics, b.topics)
    assert a.theta.indptr.tolist() == b.theta.indptr.tolist()
    assert np.array_equal(a.theta.data, b.theta.data)


# ----------------------------------------------------------------------
# Synchronous bit-identity
# ----------------------------------------------------------------------

class TestLayoutEquivalence:
    """Same total worker count ⇒ bit-identical model, any layout."""

    def test_bit_identical_across_layouts(self, corpus):
        r14 = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train()
        r22 = _trainer(corpus, 2, 2).train()
        r41 = _trainer(corpus, 4, 1).train()
        _assert_same_model(r14, r22)
        _assert_same_model(r14, r41)

    @pytest.mark.parametrize("backend", cluster_collective_names())
    def test_bit_identical_across_backends(self, corpus, backend):
        reference = _trainer(corpus, 2, 2).train()  # inter_sync=auto
        forced = _trainer(corpus, 2, 2, inter_sync=backend).train()
        _assert_same_model(reference, forced)

    def test_backends_conserve_tokens(self, corpus):
        for backend in cluster_collective_names():
            result = _trainer(corpus, 2, 2, inter_sync=backend).train()
            assert result.phi.sum() == corpus.num_tokens

    def test_result_shape_metadata(self, corpus):
        result = _trainer(corpus, 2, 2).train()
        assert result.num_gpus == 4
        assert result.num_workers == 2
        assert result.machine_name.startswith("2x ")
        assert result.network_bytes > 0
        assert result.phi.sum() == corpus.num_tokens


class TestCheckpointResume:
    """Resume is bit-identical — within a layout, across layouts, and
    across the single-machine/multi-node boundary."""

    def test_resume_mid_training(self, corpus, tmp_path):
        ck = tmp_path / "ck.npz"
        full = _trainer(corpus, 2, 2).train(
            save_every=2, checkpoint_path=str(ck)
        )
        resumed = _trainer(corpus, 2, 2).train(resume=str(ck))
        _assert_same_model(full, resumed)

    @pytest.mark.parametrize("backend", cluster_collective_names())
    def test_resume_across_backends(self, corpus, tmp_path, backend):
        """A checkpoint written under one backend resumes under another:
        the backends are exact, so the run-state is backend-free."""
        ck = tmp_path / "ck.npz"
        full = _trainer(corpus, 2, 2, inter_sync="eth_ring").train(
            save_every=2, checkpoint_path=str(ck)
        )
        resumed = _trainer(corpus, 2, 2, inter_sync=backend).train(
            resume=str(ck)
        )
        _assert_same_model(full, resumed)

    def test_resume_across_layouts(self, corpus, tmp_path):
        """A 1×4 checkpoint finishes identically on a 2×2 cluster and
        a 4×1 cluster (same W ⇒ same chunk plan and RNG streams)."""
        ck = tmp_path / "ck.npz"
        full = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train(save_every=2, checkpoint_path=str(ck))
        r22 = _trainer(corpus, 2, 2).train(resume=str(ck))
        r41 = _trainer(corpus, 4, 1).train(resume=str(ck))
        _assert_same_model(full, r22)
        _assert_same_model(full, r41)

    def test_multinode_checkpoint_resumes_on_single_machine(
        self, corpus, tmp_path
    ):
        ck = tmp_path / "ck.npz"
        full = _trainer(corpus, 2, 2).train(
            save_every=2, checkpoint_path=str(ck)
        )
        resumed = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train(resume=str(ck))
        _assert_same_model(full, resumed)


# ----------------------------------------------------------------------
# Bounded staleness
# ----------------------------------------------------------------------

class TestStaleness:
    def test_conserves_tokens_every_iteration(self, corpus):
        algo = _trainer(corpus, 2, 2, staleness=2)
        state = algo.init_state()
        for _ in range(4):
            algo.run_iteration(state)
            algo.capture_state(state)
            # Read-your-writes: the global count (Σ per-node counts)
            # always accounts for every token, sync round or not.
            assert state.phi.sum() == corpus.num_tokens

    def test_async_faster_than_sync(self, corpus):
        sync = _trainer(corpus, 2, 2, staleness=0).train()
        lax = _trainer(corpus, 2, 2, staleness=3).train()
        assert lax.total_sim_seconds < sync.total_sim_seconds

    def test_async_converges_near_sync(self, corpus):
        """Bounded staleness costs bounded progress: the async run's
        final likelihood beats the synchronous trajectory at half the
        iteration count, and lands within a modest band of the
        synchronous endpoint (it samples against φ at most s rounds
        old, not against a frozen model)."""
        iters = 12
        cfg = dict(num_topics=16, seed=0, likelihood_every=1)
        sync = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(staleness=0, iterations=iters, **cfg),
        ).train()
        lax = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(staleness=2, iterations=iters, **cfg),
        ).train()
        sync_traj = [s.log_likelihood_per_token for s in sync.iterations]
        lax_final = lax.iterations[-1].log_likelihood_per_token
        assert lax_final > sync_traj[iters // 2 - 1]
        assert abs(lax_final - sync_traj[-1]) / abs(sync_traj[-1]) < 0.12

    def test_zero_staleness_matches_single_machine(self, corpus):
        single = CuLDA(
            corpus, make_machine("pascal", 4),
            TrainConfig(num_topics=16, iterations=4, seed=0),
        ).train()
        dist = _trainer(corpus, 2, 2, staleness=0).train()
        _assert_same_model(single, dist)

    def test_mid_window_resume_bit_identical(self, corpus, tmp_path):
        """A checkpoint taken between syncs carries the stale φ cache
        and per-node bases in its extras; resuming replays the exact
        remaining schedule."""
        ck = tmp_path / "ck.npz"
        kw = dict(num_topics=16, iterations=6, seed=0, staleness=2)
        full = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(**kw),
        ).train(save_every=2, checkpoint_path=str(ck))
        resumed = DistributedCuLDA(
            corpus, [make_machine("pascal", 2) for _ in range(2)],
            config=TrainConfig(**kw),
        ).train(resume=str(ck))
        _assert_same_model(full, resumed)

    def test_negative_staleness_rejected(self, corpus):
        with pytest.raises(ValueError, match="staleness"):
            _trainer(corpus, 2, 2, staleness=-1)


# ----------------------------------------------------------------------
# Constructor validation: one node is CuLDA's job
# ----------------------------------------------------------------------

class TestSingleNodeDegeneration:
    """A single machine trains with ``CuLDA``; the multi-node trainer
    rejects it rather than running a one-node hierarchy."""

    def test_constructor_validation(self, corpus):
        for machines in ([], [make_machine("pascal", 4)]):
            with pytest.raises(ValueError, match="at least two machines.*CuLDA"):
                DistributedCuLDA(corpus, machines)
        with pytest.raises(ValueError, match="same GPU count"):
            DistributedCuLDA(
                corpus,
                [make_machine("pascal", 1), make_machine("pascal", 2)],
            )
        with pytest.raises(ValueError, match="unknown inter-node sync"):
            DistributedCuLDA(
                corpus, [make_machine("pascal", 1)] * 2,
                config=TrainConfig(num_topics=8, inter_sync="bogus"),
            )
        with pytest.raises(ValueError, match="network has"):
            DistributedCuLDA(
                corpus, [make_machine("pascal", 1)] * 2,
                network=ClusterNetwork(3),
            )


# ----------------------------------------------------------------------
# Hypothesis: the cluster sync planner over randomized topologies
# ----------------------------------------------------------------------

@st.composite
def cluster_cases(draw):
    """(num_nodes, dead nodes, per-node degrade scales, payload shape).

    Dead nodes are killed via ``fail_node`` (detector-visible, so the
    planner must exclude them); degraded links stay up but slow, which
    shifts the cost comparison without making anything infeasible. At
    least two nodes always survive so an inter-node exchange exists.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=5))
    dead = draw(
        st.sets(
            st.integers(min_value=0, max_value=num_nodes - 1),
            max_size=num_nodes - 2,
        )
    )
    scales = draw(
        st.lists(
            st.floats(min_value=0.25, max_value=1.0, allow_nan=False),
            min_size=num_nodes, max_size=num_nodes,
        )
    )
    shape = (
        draw(st.integers(min_value=1, max_value=8)),
        draw(st.integers(min_value=1, max_value=48)),
    )
    return num_nodes, frozenset(dead), scales, shape


def _build_network(num_nodes, dead, scales):
    net = ClusterNetwork(num_nodes)
    for n, scale in enumerate(scales):
        net.links[n].degrade(scale)
    for n in dead:
        net.fail_node(n)
    return net


def _measure(backend_name, num_nodes, dead, scales, shape, num_shards):
    """Force-execute one backend on a fresh identical network with all
    nodes ready at t=0; returns (completion time, network) or (None,
    network) when the backend has no usable path."""
    net = _build_network(num_nodes, dead, scales)
    server = ShardedParameterServer(
        np.zeros(shape, dtype=np.int64), num_shards, net
    )
    live = tuple(net.alive_nodes)
    counts = [
        np.full(shape, i + 1, dtype=np.int64) for i in range(len(live))
    ]
    ctx = ClusterSyncContext(
        network=net, nodes=live, node_counts=counts,
        pending=[c.copy() for c in counts], ready=[0.0] * len(live),
        server=server,
    )
    try:
        result = get_cluster_collective(backend_name).allreduce(ctx)
    except SyncPathError:
        return None, None, net
    return max(result.done), result.phi, net


class TestClusterPlannerProperties:
    @given(cluster_cases())
    # A failed push to a dead primary must not hold the sender's NIC.
    @example((4, frozenset({0}), [1.0, 1.0, 0.25, 1.0], (1, 1)))
    @settings(max_examples=40, deadline=None)
    def test_auto_matches_measured_cheapest(self, case):
        num_nodes, dead, scales, shape = case
        measured = {}
        for name in cluster_collective_names():
            seconds, phi, _ = _measure(
                name, num_nodes, dead, scales, shape, num_nodes
            )
            if seconds is not None:
                measured[name] = seconds
                # Exactness holds on every topology, not just healthy ones.
                expect = sum(
                    np.full(shape, i + 1, dtype=np.int64)
                    for i in range(num_nodes - len(dead))
                )
                assert np.array_equal(phi, expect)
        assert measured, "a healthy majority must always have a path"

        net = _build_network(num_nodes, dead, scales)
        server = ShardedParameterServer(
            np.zeros(shape, dtype=np.int64), num_nodes, net
        )
        plan = plan_cluster_sync(net, shape, server=server)
        best = min(measured.values())
        # auto's pick must be measured-cheapest (ulp tolerance: the
        # estimate replays the schedule, so ties can only come from
        # float associativity, never from model error).
        assert measured[plan.algorithm] <= best * (1 + 1e-9)
        # ... and the replayed prediction equals the measurement.
        assert measured[plan.algorithm] == pytest.approx(
            plan.estimate.seconds, rel=1e-9, abs=1e-15
        )

    @given(cluster_cases())
    @settings(max_examples=40, deadline=None)
    def test_plans_and_traffic_avoid_dead_nodes(self, case):
        num_nodes, dead, scales, shape = case
        net = _build_network(num_nodes, dead, scales)
        server = ShardedParameterServer(
            np.zeros(shape, dtype=np.int64), num_nodes, net
        )
        plan = plan_cluster_sync(net, shape, server=server)
        assert not set(plan.nodes) & dead
        assert set(plan.nodes) == set(net.alive_nodes)

        for name in cluster_collective_names():
            _, _, used_net = _measure(
                name, num_nodes, dead, scales, shape, num_nodes
            )
            for op, src, dst, *_ in used_net.messages:
                assert src not in dead, f"{name}/{op} sent from dead {src}"
                assert dst not in dead, f"{name}/{op} sent to dead {dst}"

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=20, deadline=None)
    def test_unreachable_alive_node_is_infeasible(self, num_nodes, which):
        """A NIC-down (but alive) node can neither be excluded nor
        reached — every backend is infeasible and the planner says so."""
        which %= num_nodes
        net = ClusterNetwork(num_nodes)
        net.links[which].set_down(True)
        with pytest.raises(SyncPathError):
            plan_cluster_sync(net, (4, 16))

    def test_forced_backend_is_forced(self):
        net = ClusterNetwork(3)
        plan = plan_cluster_sync(net, (4, 16), algorithm="param_server")
        assert plan.forced and plan.algorithm == "param_server"
        auto = plan_cluster_sync(net, (4, 16))
        assert not auto.forced

    def test_choices_list_registry(self):
        assert cluster_sync_choices() == ("auto", "eth_ring", "param_server")


# ----------------------------------------------------------------------
# Chaos: node loss, elastic recovery, migration properties
# ----------------------------------------------------------------------

def _node_plan(iteration, node):
    return FaultPlan(faults=(
        FaultSpec(kind="node_failure", iteration=iteration, node=node),
    ))


def _reference(corpus, **config_kwargs):
    cfg = TrainConfig(num_topics=16, iterations=4, seed=0, **config_kwargs)
    return CuLDA(corpus, make_machine("pascal", 4), cfg)


class TestNodeLossRecovery:
    """Elastic recovery keeps synchronous runs bit-identical to the
    fault-free run (the LDA* guarantee, extended to CuLDA's two-leg
    sync) and async runs token-conserving."""

    def test_node_death_mid_sync_bit_identical(self, corpus):
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=_node_plan(2, 1)
        )
        _assert_same_model(clean, chaos)
        assert chaos.repartitions == 1
        assert chaos.rollbacks == 0

    def test_chaos_plan_bit_identical(self, corpus):
        """The canonical cluster chaos plan (node death + flaky
        Ethernet) leaves the model untouched."""
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=cluster_chaos_plan(2)
        )
        _assert_same_model(clean, chaos)

    def test_gpu_death_inside_node_bit_identical(self, corpus):
        """A single GPU dying inside a node reuses the intra-node
        elastic re-partition; global device ids span machines."""
        plan = FaultPlan(faults=(
            FaultSpec(kind="device_failure", iteration=2, device=3),
        ))
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=plan
        )
        _assert_same_model(clean, chaos)

    def test_shard_corruption_healed_bit_identical(self, corpus):
        plan = FaultPlan(faults=(
            FaultSpec(kind="ps_shard_corruption", iteration=2, node=1),
        ))
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=plan
        )
        _assert_same_model(clean, chaos)

    def test_stall_charged_to_simulated_clock(self, corpus):
        clean = _trainer(corpus, 2, 2).train()
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=_node_plan(2, 1)
        )
        # Detection waits out the heartbeat lease (dead ≥ 2 s after the
        # node was last heard from), dwarfing the fault-free runtime.
        assert chaos.total_sim_seconds >= 2.0
        assert chaos.total_sim_seconds > clean.total_sim_seconds

    def test_node_death_mid_staleness_window(self, corpus):
        """Async mode: the dead node's staleness window drains
        deterministically and every token survives the migration."""
        chaos = _trainer(corpus, 2, 2, staleness=2).train(
            recovery="elastic", fault_plan=_node_plan(2, 0)
        )
        assert chaos.phi.sum() == corpus.num_tokens
        assert chaos.repartitions == 1
        assert np.isfinite(chaos.iterations[-1].log_likelihood_per_token)

    def test_recovery_none_fails_with_timeline(self, corpus):
        with pytest.raises(TrainingFailure) as err:
            _trainer(corpus, 2, 2).train(
                recovery="none", fault_plan=_node_plan(2, 1)
            )
        events = err.value.membership_events
        assert (0.5, 1, "alive", "suspect") in events
        assert (2.0, 1, "suspect", "dead") in events
        assert err.value.fault_events

    def test_checkpoint_across_recovery_resumes_cross_layout(
        self, corpus, tmp_path
    ):
        """A checkpoint written *after* a recovery (non-identity worker
        hosting in its extras) resumes bit-identically on the same
        layout, a different layout, and a single machine."""
        clean = _reference(corpus).train()
        ck = tmp_path / "ck.npz"
        chaos = _trainer(corpus, 2, 2).train(
            recovery="elastic", fault_plan=_node_plan(1, 1),
            save_every=2, checkpoint_path=str(ck),
        )
        _assert_same_model(clean, chaos)
        _assert_same_model(clean, _trainer(corpus, 2, 2).train(resume=str(ck)))
        _assert_same_model(clean, _trainer(corpus, 4, 1).train(resume=str(ck)))
        _assert_same_model(clean, _reference(corpus).train(resume=str(ck)))


@pytest.fixture(scope="module")
def small_corpus():
    return pubmed_like(2_000, 8, seed=5)


class TestMigrationProperties:
    @given(
        nodes=st.integers(min_value=2, max_value=3),
        gpus=st.integers(min_value=1, max_value=2),
        dead=st.integers(min_value=0, max_value=2),
        iteration=st.integers(min_value=1, max_value=3),
        staleness=st.integers(min_value=0, max_value=1),
    )
    @settings(max_examples=10, deadline=None)
    def test_migration_conserves_tokens_avoids_dead_nodes(
        self, small_corpus, nodes, gpus, dead, iteration, staleness
    ):
        """Any elastic migration plan conserves tokens and never hosts
        a logical worker on a detector-dead node."""
        dead %= nodes
        algo = DistributedCuLDA(
            small_corpus,
            [make_machine("pascal", gpus) for _ in range(nodes)],
            config=TrainConfig(
                num_topics=8, iterations=4, seed=0, staleness=staleness
            ),
        )
        result = algo.train(
            recovery="elastic", fault_plan=_node_plan(iteration, dead)
        )
        assert result.phi.sum() == small_corpus.num_tokens
        dead_nodes = algo.membership.dead_nodes
        assert dead in dead_nodes
        assert not set(algo._worker_node) & set(dead_nodes)
        hosting = algo.server.parked("chunk_hosting")
        assert hosting is not None
        assert not set(hosting.tolist()) & set(dead_nodes)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCLIDistributed:
    ARGS = [
        "train", "--synthetic", "pubmed", "--tokens", "8000",
        "--topics", "8", "--iterations", "2", "--platform", "pascal",
    ]

    def test_multinode_train(self, capsys):
        rc = main(self.ARGS + ["--gpus", "2", "--nodes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2x Pascal Platform" in out
        assert "(4 GPU(s))" in out

    def test_gpus_per_node_and_backend(self, capsys):
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--inter-sync", "param_server", "--staleness", "1",
        ])
        assert rc == 0
        assert "2x Pascal Platform" in capsys.readouterr().out

    def test_staleness_requires_multinode(self, capsys):
        rc = main(self.ARGS + ["--staleness", "1"])
        assert rc == 2
        assert "--nodes > 1" in capsys.readouterr().err

    def test_inter_sync_requires_multinode(self, capsys):
        rc = main(self.ARGS + ["--inter-sync", "eth_ring"])
        assert rc == 2

    def test_nodes_require_culda(self, capsys):
        rc = main(self.ARGS + ["--algo", "ldastar", "--nodes", "2"])
        assert rc == 2
        assert "--algo culda" in capsys.readouterr().err

    @staticmethod
    def _plan(tmp_path, faults):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"faults": faults}))
        return str(plan)

    def test_cluster_faults_need_cluster_substrate(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path, [{"kind": "node_failure", "iteration": 1, "node": 0}]
        )
        rc = main(self.ARGS + ["--gpus", "2", "--faults", plan])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fault #0 (node_failure)" in err
        assert "cluster substrate" in err

    def test_gpu_faults_need_gpu_substrate(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path,
            [{"kind": "device_failure", "iteration": 1, "device": 0}],
        )
        rc = main(self.ARGS + ["--algo", "ldastar", "--faults", plan])
        assert rc == 2
        assert "fault #0 (device_failure)" in capsys.readouterr().err

    def test_multinode_gpu_fault_allowed(self, capsys, tmp_path):
        """Global device ids span machines: device 3 is node 1 GPU 1."""
        plan = self._plan(
            tmp_path,
            [{"kind": "device_failure", "iteration": 1, "device": 3}],
        )
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--faults", plan, "--recovery", "elastic",
        ])
        assert rc == 0
        assert "1 repartition(s)" in capsys.readouterr().out

    def test_multinode_elastic_node_recovery(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path, [{"kind": "node_failure", "iteration": 1, "node": 1}]
        )
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--faults", plan, "--recovery", "elastic",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 fault event(s)" in out
        assert "1 repartition(s)" in out

    def test_multinode_recovery_none_prints_timeline(self, capsys, tmp_path):
        plan = self._plan(
            tmp_path, [{"kind": "node_failure", "iteration": 1, "node": 1}]
        )
        rc = main(self.ARGS + [
            "--nodes", "2", "--gpus-per-node", "2",
            "--faults", plan, "--recovery", "none",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "membership timeline" in err
        assert "suspect -> dead" in err
