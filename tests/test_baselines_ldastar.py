"""Tests for the LDA* distributed baseline and its cluster substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.ldastar import LDAStar
from repro.cluster.network import ClusterNetwork
from repro.cluster.paramserver import ShardedParameterServer
from repro.core.model import LDAHyperParams
from repro.gpusim.errors import SyncPathError


class TestClusterNetwork:
    def test_send_latency_and_bandwidth(self):
        net = ClusterNetwork(3, link_gbps=1.25, latency_seconds=1e-4)
        start, end = net.send(0, 1, 1.25e9, earliest=0.0)
        assert start == 0.0
        # Two link traversals, pipelined: bounded by ~1s + latencies.
        assert end == pytest.approx(1.0 + 2e-4, rel=0.01)

    def test_self_send_free(self):
        net = ClusterNetwork(2)
        assert net.send(1, 1, 1e9, earliest=5.0) == (5.0, 5.0)

    def test_egress_contention(self):
        net = ClusterNetwork(3, link_gbps=1.0, latency_seconds=0.0)
        _, e1 = net.send(0, 1, 1e9, 0.0)
        s2, _ = net.send(0, 2, 1e9, 0.0)  # same source: serialize
        assert s2 == pytest.approx(e1)

    def test_disjoint_pairs_parallel(self):
        net = ClusterNetwork(4, link_gbps=1.0, latency_seconds=0.0)
        _, e1 = net.send(0, 1, 1e9, 0.0)
        s2, _ = net.send(2, 3, 1e9, 0.0)  # disjoint: no contention
        assert s2 == 0.0

    def test_send_to_downed_node_holds_no_egress(self):
        """A message to a dead destination never leaves, so the
        sender's NIC stays free for its next message."""
        net = ClusterNetwork(3, link_gbps=1.0, latency_seconds=0.0)
        net.fail_node(2)
        with pytest.raises(SyncPathError):
            net.send(0, 2, 1e9, 0.0)
        assert net.links[0].busy_until(0) == 0.0
        assert net.links[0].bytes_carried == 0.0
        assert net.send(0, 1, 1e9, 0.0)[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterNetwork(0)


class TestParameterServer:
    def _mk(self, num_nodes=4, K=6, V=20):
        rng = np.random.default_rng(0)
        phi = rng.integers(0, 10, size=(K, V)).astype(np.int64)
        net = ClusterNetwork(num_nodes)
        return phi, ShardedParameterServer(phi.copy(), num_nodes, net)

    def test_pull_returns_slice(self):
        phi, ps = self._mk()
        words = np.array([1, 5, 7])
        got, t = ps.pull(0, words, earliest=0.0)
        assert np.array_equal(got, phi[:, words])
        assert t > 0

    def test_push_applies_delta(self):
        phi, ps = self._mk()
        words = np.array([2, 3])
        delta = np.ones((6, 2), dtype=np.int64)
        ps.push(1, words, delta, earliest=0.0)
        assert np.array_equal(ps.phi[:, words], phi[:, words] + 1)

    def test_push_shape_check(self):
        _, ps = self._mk()
        with pytest.raises(ValueError):
            ps.push(0, np.array([1]), np.ones((2, 2), dtype=np.int64), 0.0)

    def test_sharding_validation(self):
        phi = np.zeros((2, 4), dtype=np.int64)
        net = ClusterNetwork(2)
        with pytest.raises(ValueError):
            ShardedParameterServer(phi, 3, net)

    def test_traffic_accounting(self):
        _, ps = self._mk()
        ps.pull(0, np.array([1, 2, 3]), 0.0)
        assert ps.bytes_pulled > 0


class TestLDAStar:
    def test_trains_and_conserves_counts(self, medium_corpus):
        hyper = LDAHyperParams(num_topics=8)
        star = LDAStar(medium_corpus, hyper, num_workers=3, seed=0)
        r = star.train(iterations=3)
        assert r.phi.sum() == medium_corpus.num_tokens
        assert r.num_workers == 3
        assert r.network_bytes > 0
        assert r.total_sim_seconds > 0

    def test_likelihood_improves(self, medium_corpus):
        hyper = LDAHyperParams(num_topics=16)
        star = LDAStar(medium_corpus, hyper, num_workers=2, seed=0)
        ll0 = star.log_likelihood_per_token()
        r = star.train(iterations=10)
        assert r.final_log_likelihood > ll0 + 0.1

    def test_network_dominates_vs_gpu(self, medium_corpus):
        """§7.2's claim: the iteration-granular sync over Ethernet costs
        LDA* dearly against a single GPU at the same K. No cluster size
        catches the GPU, growing the cluster flattens its returns, and
        (Fig 8) LDA* reaches CuLDA's final likelihood later in
        simulated time."""
        from repro.analysis.metrics import time_to_likelihood
        from repro.core import CuLDA, TrainConfig
        from repro.gpusim.platform import volta_platform

        def reach(result, target):
            times = np.cumsum([it.sim_seconds for it in result.iterations])
            lls = [it.log_likelihood_per_token for it in result.iterations]
            return time_to_likelihood(times, np.array(lls), target)

        hyper = LDAHyperParams(num_topics=16)
        rg = CuLDA(medium_corpus, volta_platform(1),
                   TrainConfig(num_topics=16, iterations=3, seed=0,
                               likelihood_every=1)).train()
        speeds = {}
        for workers in (2, 4, 8, 16):
            star = LDAStar(medium_corpus, hyper, num_workers=workers, seed=0)
            rs = star.train(iterations=3, likelihood_every=1)
            speeds[workers] = rs.avg_tokens_per_sec
            assert rg.avg_tokens_per_sec > rs.avg_tokens_per_sec, workers
            if workers == 4:
                target = rg.final_log_likelihood
                t_star = reach(rs, target)
                assert t_star is not None and t_star > reach(rg, target)
        assert speeds[16] / speeds[8] < speeds[4] / speeds[2] + 0.25

    def test_iteration_records_components(self, medium_corpus):
        hyper = LDAHyperParams(num_topics=8)
        star = LDAStar(medium_corpus, hyper, num_workers=2, seed=0)
        r = star.train(iterations=2)
        it = r.iterations[0]
        assert it.network_seconds >= 0
        assert it.compute_seconds > 0
        assert it.sim_seconds > 0

    def test_validation(self, medium_corpus):
        with pytest.raises(ValueError):
            LDAStar(medium_corpus, LDAHyperParams(num_topics=8), num_workers=0)


class TestBoundedStaleness:
    def test_validation(self, medium_corpus):
        with pytest.raises(ValueError):
            LDAStar(medium_corpus, LDAHyperParams(num_topics=8),
                    num_workers=2, staleness=-1)

    def test_staleness_reduces_network_traffic(self, medium_corpus):
        hyper = LDAHyperParams(num_topics=8)
        sync = LDAStar(medium_corpus, hyper, num_workers=4, seed=0,
                       staleness=0).train(iterations=6)
        stale = LDAStar(medium_corpus, hyper, num_workers=4, seed=0,
                        staleness=2).train(iterations=6)
        assert stale.network_bytes < 0.6 * sync.network_bytes
        assert stale.total_sim_seconds < sync.total_sim_seconds

    def test_stale_training_still_converges(self, medium_corpus):
        hyper = LDAHyperParams(num_topics=16)
        star = LDAStar(medium_corpus, hyper, num_workers=3, seed=0,
                       staleness=3)
        ll0 = star.log_likelihood_per_token()
        r = star.train(iterations=10)
        assert r.final_log_likelihood > ll0 + 0.1

    def test_no_updates_lost_under_staleness(self, medium_corpus):
        """Bounded staleness delays updates but never drops them: after
        a flushing sync round the server's φ matches the sum of the
        workers' actual counts cell-for-cell, not just in total."""
        import numpy as np

        hyper = LDAHyperParams(num_topics=8)
        star = LDAStar(medium_corpus, hyper, num_workers=3, seed=0,
                       staleness=2)
        star.train(iterations=7)  # ends on iteration 6 = a sync round
        expected = np.zeros_like(star.server.phi)
        for w in star.workers:
            expected += w.local_counts
        assert np.array_equal(star.server.phi, expected)
        assert star.server.phi.sum() == medium_corpus.num_tokens
