"""Full-pipeline integration tests: the library as a user would run it.

UCI file → preprocessing → multi-GPU training → checkpoint →
fold-in inference → topic quality — each stage's output consumed by the
next, asserting cross-module contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.topics import topic_diversity, umass_coherence
from repro.core import (
    CuLDA,
    TrainConfig,
    infer_documents,
    load_model,
    save_model,
)
from repro.corpus.preprocess import filter_short_documents, prune_vocabulary
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
from repro.corpus.uci import read_uci_bow, write_uci_bow
from repro.gpusim.platform import pascal_platform, volta_platform


@pytest.fixture(scope="module")
def raw_corpus():
    return generate_lda_corpus(
        SyntheticSpec(num_docs=250, num_words=400, avg_doc_length=70,
                      num_topics=6, alpha=0.08, name="pipeline"),
        seed=42,
    )


class TestFullPipeline:
    def test_uci_roundtrip_then_train_then_infer(self, raw_corpus, tmp_path):
        # 1. Persist and reload through the UCI interchange format.
        uci_path = tmp_path / "docword.pipeline.txt"
        write_uci_bow(raw_corpus, uci_path)
        corpus = read_uci_bow(uci_path)
        assert corpus.num_tokens == raw_corpus.num_tokens

        # 2. Preprocess.
        corpus = prune_vocabulary(corpus, min_doc_frequency=2)
        corpus = filter_short_documents(corpus, min_length=5)
        assert corpus.num_tokens > 0

        # 3. Train on 2 simulated GPUs, with early stopping available.
        result = CuLDA(
            corpus, pascal_platform(2),
            TrainConfig(num_topics=12, iterations=25, seed=0,
                        likelihood_every=5),
        ).train()
        assert result.phi.sum() == corpus.num_tokens
        assert result.final_log_likelihood is not None

        # 4. Checkpoint round trip.
        ckpt_path = tmp_path / "model.npz"
        save_model(result, ckpt_path)
        ckpt = load_model(ckpt_path)
        assert np.array_equal(ckpt.phi, result.phi)

        # 5. Fold in held-out documents from the same generator.
        held = generate_lda_corpus(
            SyntheticSpec(num_docs=30, num_words=corpus.num_words,
                          avg_doc_length=50, num_topics=6, alpha=0.08),
            seed=43,
        )
        inf = infer_documents(held, ckpt.phi, ckpt.hyper, iterations=10,
                              seed=7)
        assert np.allclose(inf.doc_topic.sum(axis=1), 1.0)
        assert np.isfinite(inf.log_likelihood_per_token)

        # 6. Topic quality on the training corpus.
        diversity = topic_diversity(result.phi, top_n=10)
        assert diversity > 0.3
        coherence = umass_coherence(result.phi, corpus, top_n=5)
        assert np.all(np.isfinite(coherence))

    def test_cross_platform_statistical_agreement(self, raw_corpus):
        """Different simulated hardware must NOT change the statistics:
        same seed + same chunk count ⇒ same model on Pascal and Volta."""
        cfg = TrainConfig(num_topics=8, iterations=5, seed=3, chunks_per_gpu=2)
        a = CuLDA(raw_corpus, pascal_platform(1), cfg).train()
        b = CuLDA(raw_corpus, volta_platform(1), cfg).train()
        assert np.array_equal(a.phi, b.phi)
        # ...while the simulated times do differ (Volta is faster).
        assert b.total_sim_seconds < a.total_sim_seconds

    def test_memory_is_returned_after_training(self, raw_corpus):
        machine = pascal_platform(2)
        before = [g.allocator.bytes_in_use for g in machine.gpus]
        CuLDA(raw_corpus, machine,
              TrainConfig(num_topics=8, iterations=2, seed=0)).train()
        after = [g.allocator.bytes_in_use for g in machine.gpus]
        assert before == after

    def test_energy_accounting_positive_and_ordered(self, raw_corpus):
        """Energy model sanity: a longer run burns more joules. The same
        run costs fewer joules on each newer GPU, and every GPU beats
        the WarpLDA CPU baseline on energy, not just on speed."""
        from repro.baselines.warplda import warplda_iteration_cost
        from repro.gpusim.costmodel import CostModel
        from repro.gpusim.platform import CPU_E5_2690V4, maxwell_platform

        m_short = pascal_platform(1)
        CuLDA(raw_corpus, m_short,
              TrainConfig(num_topics=8, iterations=2, seed=0)).train()
        m_long = pascal_platform(1)
        CuLDA(raw_corpus, m_long,
              TrainConfig(num_topics=8, iterations=8, seed=0)).train()
        e_short = m_short.energy_joules()
        e_long = m_long.energy_joules()
        assert 0 < e_short < e_long

        joules = {"Pascal": e_long}
        for name, factory in (("Maxwell", maxwell_platform),
                              ("Volta", volta_platform)):
            m = factory(1)
            CuLDA(raw_corpus, m,
                  TrainConfig(num_topics=8, iterations=8, seed=0)).train()
            joules[name] = m.energy_joules()
        assert joules["Volta"] < joules["Pascal"] < joules["Maxwell"]
        cpu_iteration = CostModel().kernel_seconds(
            CPU_E5_2690V4,
            warplda_iteration_cost(
                raw_corpus.num_tokens, 8, raw_corpus.num_words,
                raw_corpus.num_tokens / raw_corpus.num_docs,
            ),
        )
        assert 8 * cpu_iteration * CPU_E5_2690V4.tdp_watts > max(joules.values())
