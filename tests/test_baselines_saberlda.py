"""Tests for the SaberLDA-like ablated GPU baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.saberlda import SaberLDA
from repro.core import CuLDA, TrainConfig
from repro.gpusim.platform import pascal_platform


class TestSaberLDA:
    def test_rejects_multi_gpu(self, small_corpus):
        with pytest.raises(ValueError, match="single GPU"):
            SaberLDA(small_corpus, pascal_platform(2))

    def test_optimizations_disabled(self, small_corpus):
        s = SaberLDA(small_corpus, pascal_platform(1),
                     TrainConfig(num_topics=8, iterations=2))
        assert not s.config.share_p2_tree
        assert not s.config.reuse_pstar
        assert not s.config.compressed

    def test_trains_and_converges(self, medium_corpus):
        s = SaberLDA(medium_corpus, pascal_platform(1),
                     TrainConfig(num_topics=16, iterations=10, seed=0))
        r = s.train()
        assert r.phi.sum() == medium_corpus.num_tokens
        assert r.final_log_likelihood is not None

    def test_slower_than_culda_same_platform(self, medium_corpus):
        """The §7.2 comparison, measured: CuLDA's optimizations beat the
        prior-generation GPU design at equal statistical work."""
        from repro.analysis.metrics import time_to_likelihood

        cfg = TrainConfig(num_topics=32, iterations=5, seed=0,
                          likelihood_every=1)
        culda = CuLDA(medium_corpus, pascal_platform(1), cfg).train()
        saber = SaberLDA(medium_corpus, pascal_platform(1), cfg).train()
        assert culda.total_sim_seconds < saber.total_sim_seconds
        # Statistically they solve the same problem.
        assert saber.phi.sum() == culda.phi.sum()
        # Fig 8: SaberLDA reaches CuLDA's final likelihood later.
        target = culda.final_log_likelihood
        reached = [
            time_to_likelihood(
                np.cumsum([it.sim_seconds for it in r.iterations]),
                np.array([it.log_likelihood_per_token for it in r.iterations]),
                target,
            )
            for r in (culda, saber)
        ]
        assert reached[1] is not None and reached[1] > reached[0]
