"""Tests for fold-in inference and held-out evaluation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CuLDA, TrainConfig
from repro.core.inference import (
    held_out_log_likelihood,
    infer_documents,
)
from repro.core.kernels import KernelConfig, gibbs_sample_chunk, recount_theta
from repro.core.model import LDAHyperParams
from repro.core.serialization import load_model
from repro.corpus.corpus import Corpus
from repro.corpus.synthetic import SyntheticSpec, generate_lda_corpus
from repro.gpusim.platform import make_machine, pascal_platform
from repro.serve import InferenceService, ServiceConfig, poisson_trace
from repro.telemetry.context import telemetry_session
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture(scope="module")
def trained():
    """A trained model plus a held-out slice of the same distribution."""
    spec = SyntheticSpec(num_docs=150, num_words=250, avg_doc_length=60,
                         num_topics=5, name="ho")
    full = generate_lda_corpus(spec, seed=31)
    train = full.slice_docs(0, 120, name="train")
    held = full.slice_docs(120, 150, name="held")
    result = CuLDA(
        train, pascal_platform(1),
        TrainConfig(num_topics=10, iterations=30, seed=0),
    ).train()
    return result, train, held


class TestInferDocuments:
    def test_shapes_and_normalization(self, trained):
        result, _, held = trained
        inf = infer_documents(held, result.phi, result.hyper, iterations=10,
                              seed=1)
        assert inf.doc_topic.shape == (held.num_docs, 10)
        assert np.allclose(inf.doc_topic.sum(axis=1), 1.0)
        assert np.all(inf.doc_topic > 0)
        assert inf.theta.data.sum() == held.num_tokens

    def test_deterministic(self, trained):
        result, _, held = trained
        a = infer_documents(held, result.phi, result.hyper, iterations=6, seed=4)
        b = infer_documents(held, result.phi, result.hyper, iterations=6, seed=4)
        assert np.array_equal(a.doc_topic, b.doc_topic)

    def test_more_sweeps_beat_one(self, trained):
        """Held-out likelihood after proper fold-in exceeds a 1-sweep,
        no-burn-in estimate."""
        result, _, held = trained
        rough = infer_documents(held, result.phi, result.hyper,
                                iterations=1, burn_in=0, seed=2)
        good = infer_documents(held, result.phi, result.hyper,
                               iterations=20, seed=2)
        assert good.log_likelihood_per_token >= rough.log_likelihood_per_token - 0.05

    def test_trained_model_beats_random_phi(self, trained):
        """The trained φ must predict held-out data better than a random
        φ with the same totals — inference end-to-end sanity."""
        result, _, held = trained
        good = infer_documents(held, result.phi, result.hyper,
                               iterations=15, seed=3)
        rng = np.random.default_rng(0)
        fake_phi = rng.permutation(result.phi.ravel()).reshape(result.phi.shape)
        bad = infer_documents(held, fake_phi, result.hyper,
                              iterations=15, seed=3)
        assert good.log_likelihood_per_token > bad.log_likelihood_per_token

    def test_validation(self, trained):
        result, _, held = trained
        with pytest.raises(ValueError):
            infer_documents(held, result.phi, result.hyper, iterations=0)
        with pytest.raises(ValueError):
            infer_documents(held, result.phi, result.hyper, iterations=5,
                            burn_in=5)
        with pytest.raises(ValueError, match="topics"):
            infer_documents(held, result.phi, LDAHyperParams(num_topics=3))

    def test_vocabulary_too_large_rejected(self, trained):
        result, *_ = trained
        big = Corpus.from_documents([[result.phi.shape[1] + 3]],
                                    num_words=result.phi.shape[1] + 4)
        with pytest.raises(ValueError, match="vocabulary"):
            infer_documents(big, result.phi, result.hyper)

    def test_out_of_range_word_ids_rejected(self, trained):
        """A corpus whose *declared* vocabulary fits φ but whose actual
        ids spill past φ's columns gets a clear ValueError, not an
        IndexError from inside the sampling kernel."""
        result, *_ = trained
        V = result.phi.shape[1]
        wide = Corpus(
            np.array([0, V + 2], dtype=np.int32),
            np.array([0, 2], dtype=np.int64),
            V + 8,
        )
        with pytest.raises(ValueError, match="vocabulary|word id"):
            infer_documents(wide, result.phi, result.hyper)

    def test_one_dimensional_phi_rejected(self, trained):
        result, _, held = trained
        with pytest.raises(ValueError, match="2-D"):
            infer_documents(held, result.phi.ravel(), result.hyper)

    def test_narrower_corpus_accepted(self, trained):
        """A held-out corpus that only uses a prefix of the vocabulary
        still works (φ is wider)."""
        result, *_ = trained
        small = Corpus.from_documents([[0, 1, 2], [1, 1]], num_words=3)
        inf = infer_documents(small, result.phi, result.hyper, iterations=4)
        assert inf.doc_topic.shape[0] == 2


class TestHeldOutLikelihood:
    def test_rejects_empty(self, trained):
        result, *_ = trained
        empty = Corpus.from_documents([[]], num_words=2)
        with pytest.raises(ValueError):
            held_out_log_likelihood(
                empty, np.ones((1, 10)) / 10, result.phi,
                result.phi.sum(axis=1), result.hyper,
            )

    def test_out_of_range_word_ids_rejected(self, trained):
        """Regression: this used to raise a bare IndexError from the
        einsum gather (or return silently wrong wrapped-index scores)."""
        result, *_ = trained
        V = result.phi.shape[1]
        wide = Corpus(
            np.array([0, V + 2], dtype=np.int32),
            np.array([0, 2], dtype=np.int64),
            V + 8,
        )
        uniform = np.full((1, 10), 0.1)
        with pytest.raises(ValueError, match="word id"):
            held_out_log_likelihood(
                wide, uniform, result.phi, result.phi.sum(axis=1),
                result.hyper,
            )

    def test_one_dimensional_phi_rejected(self, trained):
        result, *_ = trained
        doc = Corpus.from_documents([[0, 1]], num_words=2)
        with pytest.raises(ValueError, match="2-D"):
            held_out_log_likelihood(
                doc, np.full((1, 10), 0.1), result.phi.ravel(),
                result.phi.sum(axis=1), result.hyper,
            )

    def test_peaked_mixture_beats_uniform_on_matching_doc(self, trained):
        result, train, _ = trained
        hyper = result.hyper
        phi = result.phi.astype(np.int64)
        n_k = phi.sum(axis=1)
        # A document of topic-0's favourite words.
        top = np.argsort(phi[0])[::-1][:20]
        doc = Corpus.from_bow(
            np.zeros(20, dtype=np.int64), top.astype(np.int32),
            np.ones(20, dtype=np.int64), num_docs=1,
            num_words=phi.shape[1],
        )
        peaked = np.full((1, hyper.num_topics), 1e-6)
        peaked[0, 0] = 1.0
        peaked /= peaked.sum()
        uniform = np.full((1, hyper.num_topics), 1.0 / hyper.num_topics)
        ll_peak = held_out_log_likelihood(doc, peaked, phi, n_k, hyper)
        ll_unif = held_out_log_likelihood(doc, uniform, phi, n_k, hyper)
        assert ll_peak > ll_unif


# ----------------------------------------------------------------------
# Batched fold-in against a frozen one-request reference
# ----------------------------------------------------------------------

def reference_fold_in(corpus, phi, hyper, iterations, burn_in, seed):
    """Fold-in of one corpus alone, frozen as the semantics batching keeps:
    its own Generator, ``rng.integers`` for the initial topics in its own
    chunk order, then one ``rng.random(T)`` per sweep fed to the kernel.
    Returns ``(theta, doc_topic, log_likelihood_per_token)``."""
    K = hyper.num_topics
    phi64 = np.asarray(phi).astype(np.int64)
    n_k = phi64.sum(axis=1)
    padded = Corpus(corpus.token_word, corpus.doc_indptr, phi64.shape[1])
    chunk = padded.to_chunk()
    config = KernelConfig(compressed=False)
    burn_in = iterations // 2 if burn_in is None else burn_in
    rng = np.random.default_rng(seed)
    topics = rng.integers(0, K, size=chunk.num_tokens).astype(np.int32)
    theta = recount_theta(chunk, topics, K, compressed=False)
    accum = np.zeros((chunk.num_docs, K), dtype=np.float64)
    samples = 0
    for it in range(iterations):
        topics, _ = gibbs_sample_chunk(
            chunk, topics, theta, phi64, n_k, hyper,
            rng.random(chunk.num_tokens), config,
        )
        theta = recount_theta(chunk, topics, K, compressed=False)
        if it >= burn_in:
            accum += theta.to_dense()
            samples += 1
    lengths = chunk.doc_lengths.astype(np.float64)
    doc_topic = (accum / max(samples, 1) + hyper.alpha) / (
        lengths[:, None] + K * hyper.alpha
    )
    ll = held_out_log_likelihood(padded, doc_topic, phi64, n_k, hyper)
    return theta, doc_topic, ll


def assert_matches_reference(result, reference):
    theta, doc_topic, ll = reference
    for name in ("indptr", "indices", "data"):
        got, want = getattr(result.theta, name), getattr(theta, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert result.doc_topic.dtype == doc_topic.dtype
    assert result.doc_topic.shape == doc_topic.shape
    assert result.doc_topic.tobytes() == doc_topic.tobytes()
    assert result.log_likelihood_per_token == ll


VOCAB = 12


@st.composite
def fold_in_batches(draw):
    """A model plus a batch of corpora: empty documents, zero-token
    corpora, repeated seeds and corpora declared narrower than φ."""
    K = draw(st.integers(min_value=2, max_value=6))
    phi = np.random.default_rng(draw(st.integers(0, 2**16))).integers(
        0, 30, (K, VOCAB)
    )
    corpora, seeds = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        num_words = draw(st.integers(min_value=1, max_value=VOCAB))
        words = st.integers(0, num_words - 1)
        if draw(st.sampled_from([False] * 7 + [True])):
            docs = [[]] * draw(st.integers(0, 2))   # no tokens at all
        else:
            docs = draw(st.lists(st.lists(words, max_size=12), max_size=5))
            docs.insert(
                draw(st.integers(0, len(docs))),
                draw(st.lists(words, min_size=1, max_size=12)),
            )
        corpora.append(Corpus.from_documents(docs, num_words=num_words))
        seeds.append(draw(st.integers(min_value=0, max_value=3)))
    iterations = draw(st.integers(min_value=1, max_value=4))
    burn_in = draw(st.none() | st.integers(0, iterations - 1))
    return phi, LDAHyperParams(num_topics=K), corpora, seeds, iterations, burn_in


class TestBatchedFoldIn:
    @given(fold_in_batches())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_one_request_reference(self, case):
        phi, hyper, corpora, seeds, iterations, burn_in = case
        kwargs = dict(iterations=iterations, burn_in=burn_in)
        if any(c.num_tokens == 0 for c in corpora):
            # A zero-token corpus has no held-out likelihood, alone or
            # in a batch.
            with pytest.raises(ValueError, match="empty corpus"):
                infer_documents(corpora, phi, hyper, seed=seeds, **kwargs)
            return
        results = infer_documents(corpora, phi, hyper, seed=seeds, **kwargs)
        assert isinstance(results, list) and len(results) == len(corpora)
        for corpus, seed, result in zip(corpora, seeds, results):
            assert result.iterations == iterations
            assert_matches_reference(result, reference_fold_in(
                corpus, phi, hyper, iterations, burn_in, seed
            ))
        # The single form is the batch of one.
        single = infer_documents(corpora[0], phi, hyper, seed=seeds[0], **kwargs)
        assert_matches_reference(single, reference_fold_in(
            corpora[0], phi, hyper, iterations, burn_in, seeds[0]
        ))

    def test_validation_runs_per_corpus(self, trained):
        result, _, held = trained
        V = result.phi.shape[1]
        big = Corpus.from_documents([[V + 3]], num_words=V + 4)
        with pytest.raises(ValueError, match="vocabulary"):
            infer_documents([held, big], result.phi, result.hyper, seed=[0, 1])
        with pytest.raises(ValueError, match="one seed per corpus"):
            infer_documents([held, held], result.phi, result.hyper, seed=[0])


SAMPLER_COUNTERS = (
    "sampler_tokens_total",
    "sampler_p1_draws_total",
    "sampler_theta_entries_total",
    "sampler_tree_probe_levels_total",
)


def test_service_payloads_and_sampler_counters_match_reference(
    serve_checkpoints,
):
    """One batched serving run equals direct per-request reference
    fold-ins: every payload, and the four sampler counters, which add
    up over disjoint documents."""
    models = {path: load_model(path) for path in serve_checkpoints}
    V = int(models[serve_checkpoints[0]].phi.shape[1])
    trace = poisson_trace(serve_checkpoints, V, rate=3000, duration=0.01,
                          seed=7)
    # Mixed sweep counts: a batch folds in once per distinct count.
    trace = [replace(r, iterations=2 + r.request_id % 2) for r in trace]
    service = InferenceService(
        make_machine("pascal", 1),
        ServiceConfig(max_batch_size=6, max_wait_seconds=1e-3,
                      max_queue=4096, iterations=3),
    )
    report = service.run_trace(trace)
    assert report.count("completed") == len(trace)
    sweeps = {}
    for r in report.results:
        sweeps.setdefault(r.batch_id, set()).add(r.request.iterations)
    assert any(len(s) > 1 for s in sweeps.values()), "no mixed batch"

    by_id = {r.request.request_id: r for r in report.results}
    direct = MetricsRegistry()
    with telemetry_session(registry=direct):
        for request in trace:
            model = models[request.model_key]
            corpus = Corpus.from_documents(request.docs, num_words=V)
            _, doc_topic, ll = reference_fold_in(
                corpus, model.phi, model.hyper, request.iterations, None,
                request.seed,
            )
            got = by_id[request.request_id]
            assert got.doc_topic.tobytes() == doc_topic.tobytes()
            assert got.log_likelihood_per_token == ll
    for name in SAMPLER_COUNTERS:
        assert (service.registry.counter(name).value()
                == direct.counter(name).value() > 0), name
