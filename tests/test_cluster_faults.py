"""Chaos suite for the cluster fault domain (docs/ROBUSTNESS.md §8).

Covers the heartbeat membership FSM, fault-aware Ethernet sends,
parameter-server replication/failover/repair, the token-lightest
worker placement shared by both multi-node trainers, elastic node-loss
recovery on the LDA* trainer (bit-identical to the fault-free run),
and the structured failures produced when recovery is off.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.membership import HeartbeatConfig, MembershipMonitor
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.cluster.placement import migrate_workers, token_lightest_moves
from repro.comm.topology import Topology
from repro.engine.recovery import ClusterRecoveryPolicy, TrainingFailure
from repro.faults.plan import FaultPlan, FaultSpec, cluster_chaos_plan
from repro.gpusim.errors import DeviceLost, NodeLost, SyncPathError
from repro.baselines.ldastar import LDAStar
from repro.telemetry import MetricsRegistry


def make_server(num_nodes=4, K=6, V=40, seed=0):
    rng = np.random.default_rng(seed)
    phi = rng.integers(0, 50, size=(K, V)).astype(np.int64)
    net = ClusterNetwork(num_nodes)
    return ShardedParameterServer(phi.copy(), num_nodes, net), net, phi


class TestHeartbeatConfig:
    def test_defaults_valid(self):
        cfg = HeartbeatConfig()
        assert cfg.dead_after > cfg.suspect_after >= cfg.interval

    @pytest.mark.parametrize("kwargs", [
        {"interval": 0.0},
        {"suspect_after": 0.01, "interval": 0.05},
        {"dead_after": 0.5, "suspect_after": 0.5},
    ])
    def test_rejects_bad_thresholds(self, kwargs):
        with pytest.raises(ValueError):
            HeartbeatConfig(**kwargs)


class TestMembershipFSM:
    def test_all_join_alive(self):
        net = ClusterNetwork(3)
        mon = MembershipMonitor(net)
        assert mon.states() == {0: "alive", 1: "alive", 2: "alive"}
        assert mon.timeline == [(0.0, n, "join", "alive") for n in range(3)]

    def test_silence_escalates_at_exact_thresholds(self):
        net = ClusterNetwork(2)
        cfg = HeartbeatConfig(interval=0.1, suspect_after=0.5, dead_after=2.0)
        mon = MembershipMonitor(net, cfg)
        mon.observe(0.3)          # both heartbeating
        net.fail_node(1)          # silent from its last lease (t=0.3)
        mon.observe(0.6)
        assert mon.state(1) == "alive"   # within suspect_after of t=0.3
        mon.observe(0.9)
        assert mon.state(1) == "suspect"
        mon.observe(5.0)
        assert mon.state(1) == "dead"
        # Transition stamps are the exact threshold expiries, not the
        # observation times.
        events = [(t, frm, to) for t, n, frm, to in mon.timeline if n == 1
                  if frm != "join"]
        assert [(frm, to) for _, frm, to in events] == [
            ("alive", "suspect"), ("suspect", "dead")
        ]
        assert [t for t, _, _ in events] == pytest.approx([0.8, 2.3])
        assert mon.dead_nodes == [1]

    def test_suspect_node_is_readmitted(self):
        net = ClusterNetwork(2)
        cfg = HeartbeatConfig(interval=0.1, suspect_after=0.5, dead_after=2.0)
        mon = MembershipMonitor(net, cfg)
        net.links[1].set_down(True)
        mon.observe(1.0)
        assert mon.state(1) == "suspect"
        net.links[1].set_down(False)   # NIC flap, not death
        mon.observe(1.2)
        assert mon.state(1) == "alive"
        assert (1.2, 1, "suspect", "alive") in mon.timeline

    def test_dead_is_permanent(self):
        net = ClusterNetwork(2)
        mon = MembershipMonitor(net)
        net.fail_node(1)
        mon.observe(100.0)
        assert mon.is_dead(1)
        # Even if reachability somehow returned, dead stays dead.
        net._alive[1] = True
        net.links[1].set_down(False)
        mon.observe(200.0)
        assert mon.is_dead(1)

    def test_await_verdict_stalls_until_lease_expiry(self):
        net = ClusterNetwork(2)
        cfg = HeartbeatConfig(interval=0.1, suspect_after=0.5, dead_after=2.0)
        mon = MembershipMonitor(net, cfg)
        mon.observe(0.5)
        net.fail_node(1)
        verdict_at = mon.await_verdict(1, 0.7)
        assert verdict_at == pytest.approx(2.5)   # last lease 0.5 + 2.0
        assert mon.is_dead(1)
        # Already-dead verdicts are immediate.
        assert mon.await_verdict(1, 3.0) == 3.0

    def test_node_lost_is_a_device_lost(self):
        exc = NodeLost(3)
        assert isinstance(exc, DeviceLost)
        assert exc.unit == "node"
        assert exc.node_id == 3
        assert "node 3" in str(exc)


class TestClusterNetworkFaults:
    def test_send_over_dead_link_raises_structured_error(self):
        net = ClusterNetwork(3)
        net.links[2].set_down(True)
        with pytest.raises(SyncPathError) as err:
            net.send(0, 2, 1000.0, 0.0, op="ps_push")
        assert err.value.op == "ps_push"
        assert err.value.devices == (0, 2)
        assert err.value.link_name == "eth[2]"
        assert not err.value.transient

    def test_retry_absorbs_flaky_link(self):
        net = ClusterNetwork(2)
        net.links[1].fail_next(2)
        retry = ClusterRecoveryPolicy(mode="retry").transfer_retry()
        start, end = net.send(0, 1, 1000.0, 0.0, retry=retry)
        assert end > start >= 0.0

    def test_retry_exhaustion_surfaces_transient_error(self):
        net = ClusterNetwork(2)
        net.links[1].fail_next(10)
        retry = ClusterRecoveryPolicy(
            mode="retry", max_transfer_retries=2
        ).transfer_retry()
        with pytest.raises(SyncPathError) as err:
            net.send(0, 1, 1000.0, 0.0, op="ps_pull", retry=retry)
        assert err.value.transient

    def test_fail_node_removes_from_topology(self):
        net = ClusterNetwork(3)
        assert Topology.from_cluster(net).devices == (0, 1, 2)
        net.fail_node(1)
        assert Topology.from_cluster(net).devices == (0, 2)


class TestParameterServerReplication:
    def test_push_with_duplicate_words_conserves_counts(self):
        # Regression: fancy-index += silently dropped duplicate word
        # columns; np.add.at must apply every occurrence.
        server, _, phi = make_server()
        words = np.array([4, 4, 9, 4], dtype=np.int64)
        delta = np.ones((phi.shape[0], words.size), dtype=np.int64)
        before = server.phi.sum()
        server.push(0, words, delta, 0.0)
        assert server.phi.sum() == before + delta.sum()
        assert np.array_equal(
            server.phi[:, 4], phi[:, 4] + 3
        )

    def test_replication_keeps_copies_identical(self):
        server, _, _ = make_server()
        words = np.arange(10, dtype=np.int64)
        delta = np.full((6, 10), 2, dtype=np.int64)
        server.push(1, words, delta, 0.0)
        for s in range(server.num_shards):
            assert np.array_equal(server._primary[s], server._replica[s])

    def test_failover_read_is_bit_exact(self):
        server, net, _ = make_server()
        words = np.arange(server.num_words, dtype=np.int64)
        healthy, _ = server.pull(1, words, 0.0)
        net.fail_node(0)   # primary of shard 0 gone
        failover, _ = server.pull(1, words, 0.0)
        assert np.array_equal(healthy, failover)
        assert any(e["kind"] == "failover_read" for e in server.events)

    def test_failover_push_applies_to_replica(self):
        server, net, _ = make_server()
        net.fail_node(0)
        words = np.arange(server.num_words, dtype=np.int64)
        delta = np.ones((6, words.size), dtype=np.int64)
        before = server.phi.sum()
        server.push(1, words, delta, 0.0)
        assert server.phi.sum() == before + delta.sum()
        assert any(e["kind"] == "failover_push" for e in server.events)

    def test_corruption_detected_and_repaired(self):
        server, _, phi = make_server()
        server.corrupt_shard(0)
        assert server.phi.sum() != phi.sum()   # corruption visible
        server.verify()
        assert np.array_equal(server.phi, phi)
        repairs = [e for e in server.events if e["kind"] == "shard_repair"]
        assert repairs and repairs[0]["from"] == "replica"

    def test_corrupt_shard_rejects_node_without_primaries(self):
        server, net, _ = make_server(num_nodes=4)
        with pytest.raises(ValueError, match="primaries"):
            server.corrupt_shard(17)

    def test_reshard_conserves_and_relocates(self):
        server, net, phi = make_server()
        net.fail_node(1)
        bytes_moved, done = server.reshard(phi, 0.0)
        assert bytes_moved > 0
        assert done > 0.0
        assert np.array_equal(server.phi, phi)
        assert 1 not in server._primary_node
        assert 1 not in server._replica_node
        assert server.bytes_resharded == bytes_moved


@st.composite
def placements(draw):
    """(hosting, tokens, survivors) over up to 6 nodes and 12 workers."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    num_workers = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=num_nodes - 1)
    hosting = draw(st.lists(node, min_size=num_workers, max_size=num_workers))
    tokens = draw(st.lists(
        st.integers(min_value=0, max_value=1_000),
        min_size=num_workers, max_size=num_workers,
    ))
    survivors = sorted(draw(st.sets(node, min_size=1)))
    return hosting, tokens, survivors


class TestPlacementProperties:
    @given(placements())
    @settings(max_examples=200, deadline=None)
    def test_token_lightest_migration(self, case):
        hosting, tokens, survivors = case
        moves = token_lightest_moves(hosting, tokens, survivors)
        placed = migrate_workers(hosting, tokens, survivors)

        # Survivors' workers stay; every orphan moves, once, in worker
        # order, onto a survivor.
        orphans = [w for w, n in enumerate(hosting) if n not in survivors]
        assert [w for w, _ in moves] == orphans
        for w, n in enumerate(hosting):
            if n in survivors:
                assert placed[w] == n
        assert all(placed[w] in survivors for w in orphans)

        # Each move targets the survivor with the smallest (load, node)
        # at that moment.
        load = {n: 0 for n in survivors}
        for w, n in enumerate(hosting):
            if n in load:
                load[n] += tokens[w]
        for w, target in moves:
            assert placed[w] == target
            assert all((load[target], target) <= (load[n], n) for n in survivors)
            load[target] += tokens[w]

        # Tokens are conserved and the plan is deterministic.
        assert sum(load.values()) == sum(tokens)
        hosted = {n: 0 for n in survivors}
        for w, n in enumerate(placed):
            hosted[n] += tokens[w]
        assert hosted == load
        assert token_lightest_moves(hosting, tokens, survivors) == moves
        assert migrate_workers(hosting, tokens, survivors) == placed


def small_star(corpus, hyper, **kwargs):
    kwargs.setdefault("num_workers", 4)
    kwargs.setdefault("seed", 0)
    return LDAStar(corpus, hyper, **kwargs)


class TestElasticNodeLoss:
    def test_chaos_run_matches_fault_free_bit_exactly(
        self, small_corpus, hyper8
    ):
        clean = small_star(small_corpus, hyper8).train(iterations=6)
        star = small_star(small_corpus, hyper8)
        res = star.train(
            iterations=6, recovery="elastic",
            fault_plan=cluster_chaos_plan(4),
        )
        assert np.array_equal(res.phi, clean.phi)
        assert res.phi.sum() == small_corpus.num_tokens
        assert res.repartitions == 1
        assert star.membership.dead_nodes == [2]
        kinds = {e["kind"] for e in star.server.events}
        # Workers ahead of the dead one in the round exercised failover
        # before the detector verdict aborted the iteration.
        assert {"failover_read", "reshard"} <= kinds

    def test_faulted_runs_are_deterministic(self, small_corpus, hyper8):
        runs = []
        for _ in range(2):
            star = small_star(small_corpus, hyper8)
            res = star.train(
                iterations=6, recovery="elastic",
                fault_plan=cluster_chaos_plan(4),
            )
            runs.append((res.phi, list(star.membership.timeline)))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_recovery_none_fails_with_timeline(self, small_corpus, hyper8):
        with pytest.raises(TrainingFailure) as err:
            small_star(small_corpus, hyper8).train(
                iterations=6, fault_plan=cluster_chaos_plan(4),
            )
        exc = err.value
        assert "node 2" in str(exc)
        assert isinstance(exc.cause, NodeLost)
        assert (2.0, 2, "suspect", "dead") in [
            tuple(e) for e in exc.membership_events
        ]
        assert any(e["kind"] == "node_failure" for e in exc.fault_events)

    def test_retry_mode_cannot_replace_a_node(self, small_corpus, hyper8):
        with pytest.raises(TrainingFailure, match="node 2 was lost"):
            small_star(small_corpus, hyper8).train(
                iterations=6, recovery="retry",
                fault_plan=cluster_chaos_plan(4),
            )

    def test_eth_retry_exhaustion_is_structured(self, small_corpus, hyper8):
        # More consecutive transient failures than the retry budget can
        # absorb, with rollback disabled: the transient error surfaces
        # as a TrainingFailure carrying the membership timeline.
        plan = FaultPlan(faults=(
            FaultSpec(kind="eth_link_flaky", iteration=2, link="eth[1]",
                      count=64),
        ))
        policy = ClusterRecoveryPolicy(
            mode="retry", max_transfer_retries=1, max_rollbacks=0
        )
        with pytest.raises(TrainingFailure) as err:
            small_star(small_corpus, hyper8).train(
                iterations=6, recovery=policy, fault_plan=plan,
            )
        exc = err.value
        assert isinstance(exc.cause, SyncPathError)
        assert exc.cause.transient
        assert len(exc.membership_events) == 4  # the four join entries

    def test_shard_corruption_heals_in_flight(self, small_corpus, hyper8):
        clean = small_star(small_corpus, hyper8).train(iterations=5)
        plan = FaultPlan(faults=(
            FaultSpec(kind="ps_shard_corruption", iteration=2, node=1),
        ))
        star = small_star(small_corpus, hyper8)
        res = star.train(iterations=5, recovery="retry", fault_plan=plan)
        assert np.array_equal(res.phi, clean.phi)
        assert res.rollbacks == 0   # repaired by checksums, not rollback
        assert any(
            e["kind"] == "shard_repair" for e in star.server.events
        )

    def test_migrations_counted_as_workers_migrated(
        self, small_corpus, hyper8
    ):
        """LDA* counts a migration under the same family, with the same
        string labels, as multi-node CuLDA (regression: it used to emit
        ``node_migrations_total`` with int labels)."""
        registry = MetricsRegistry()
        star = small_star(small_corpus, hyper8, registry=registry)
        star.train(
            iterations=6, recovery="elastic",
            fault_plan=cluster_chaos_plan(4),
        )
        moved = {
            str(w): str(n) for w, n in enumerate(star._node_of) if n != w
        }
        assert moved
        samples = registry.get("workers_migrated_total").samples()
        assert {s.labels["worker"]: s.labels["to_node"] for s in samples} == moved
        assert sum(s.value for s in samples) == len(moved)
        assert "node_migrations_total" not in registry

    def test_elastic_run_charges_recovery_time(self, small_corpus, hyper8):
        clean = small_star(small_corpus, hyper8).train(iterations=6)
        faulted = small_star(small_corpus, hyper8).train(
            iterations=6, recovery="elastic",
            fault_plan=cluster_chaos_plan(4),
        )
        # The failure-detector lease (dead_after = 2 simulated seconds)
        # dominates; a recovered run must be visibly slower.
        assert faulted.total_sim_seconds > clean.total_sim_seconds + 1.0


class TestClusterPlanValidation:
    def test_cluster_kinds_roundtrip(self):
        plan = cluster_chaos_plan(4)
        again = FaultPlan.from_dict(plan.to_dict())
        assert again == plan
        assert plan.needs_cluster and not plan.needs_machine

    def test_missing_node_names_the_entry(self):
        with pytest.raises(ValueError, match=r"fault #0 \(node_failure\)"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "node_failure", "iteration": 2}]}
            )

    def test_eth_degraded_requires_scale(self):
        with pytest.raises(ValueError, match="scale"):
            FaultPlan.from_dict({"faults": [
                {"kind": "eth_link_degraded", "iteration": 1,
                 "link": "eth[0]"}
            ]})

    def test_injector_requires_cluster_for_cluster_kinds(self):
        from repro.faults.injector import FaultInjector

        with pytest.raises(ValueError, match="cluster"):
            FaultInjector(cluster_chaos_plan(4))

    def test_injector_requires_server_for_corruption(self):
        from repro.faults.injector import FaultInjector

        plan = FaultPlan(faults=(
            FaultSpec(kind="ps_shard_corruption", iteration=1, node=0),
        ))
        with pytest.raises(ValueError, match="parameter server"):
            FaultInjector(plan, cluster=ClusterNetwork(2))


class TestClusterChaosCLI:
    def _write_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(cluster_chaos_plan(4).to_dict()))
        return str(path)

    def test_elastic_run_completes(self, capsys, tmp_path):
        rc = main([
            "train", "--algo", "ldastar", "--synthetic", "nytimes",
            "--tokens", "3000", "--topics", "8", "--iterations", "6",
            "--workers", "4", "--faults", self._write_plan(tmp_path),
            "--recovery", "elastic",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 repartition(s)" in out

    def test_none_mode_names_the_dead_node(self, capsys, tmp_path):
        rc = main([
            "train", "--algo", "ldastar", "--synthetic", "nytimes",
            "--tokens", "3000", "--topics", "8", "--iterations", "6",
            "--workers", "4", "--faults", self._write_plan(tmp_path),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "node 2" in err
        assert "membership timeline" in err
        assert "suspect -> dead" in err

    def test_cluster_kinds_rejected_for_culda(self, capsys, tmp_path):
        rc = main([
            "train", "--algo", "culda", "--synthetic", "nytimes",
            "--tokens", "3000", "--iterations", "3",
            "--faults", self._write_plan(tmp_path),
            "--recovery", "elastic",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "fault #0 (node_failure)" in err
        assert "--algo ldastar" in err

    def test_gpu_kinds_rejected_for_ldastar(self, capsys, tmp_path):
        path = tmp_path / "gpu.json"
        path.write_text(json.dumps({"faults": [
            {"kind": "device_failure", "iteration": 1, "device": 0}
        ]}))
        rc = main([
            "train", "--algo", "ldastar", "--synthetic", "nytimes",
            "--tokens", "3000", "--topics", "8", "--iterations", "3",
            "--workers", "4", "--faults", str(path),
        ])
        assert rc == 2
        assert "--algo culda" in capsys.readouterr().err
