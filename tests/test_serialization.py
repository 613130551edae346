"""Tests for model checkpointing (save/load)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CuLDA, TrainConfig
from repro.core.serialization import load_model, save_model
from repro.gpusim.platform import pascal_platform


@pytest.fixture(scope="module")
def result(request):
    from repro.corpus.synthetic import nytimes_like

    corpus = nytimes_like(num_tokens=15_000, num_topics=8, seed=9)
    return CuLDA(
        corpus, pascal_platform(1),
        TrainConfig(num_topics=12, iterations=4, seed=0),
    ).train()


class TestRoundTrip:
    def test_phi_theta_exact(self, result, tmp_path):
        p = tmp_path / "model.npz"
        save_model(result, p)
        ckpt = load_model(p)
        assert np.array_equal(ckpt.phi, result.phi)
        assert ckpt.theta == result.theta
        assert ckpt.hyper == result.hyper
        assert ckpt.corpus_name == result.corpus_name
        assert ckpt.num_topics == 12
        assert ckpt.num_words == result.phi.shape[1]

    def test_checkpoint_usable_for_inference(self, result, tmp_path):
        from repro.core.inference import infer_documents
        from repro.corpus.corpus import Corpus

        p = tmp_path / "model.npz"
        save_model(result, p)
        ckpt = load_model(p)
        doc = Corpus.from_documents([[0, 1, 2, 3, 1]], num_words=5)
        inf = infer_documents(doc, ckpt.phi, ckpt.hyper, iterations=3)
        assert np.allclose(inf.doc_topic.sum(axis=1), 1.0)

    def test_missing_field_rejected(self, result, tmp_path):
        """A format-3 file with a valid checksum but no ``num_topics``
        passes verification and is then reported as malformed."""
        import repro.core.serialization as ser

        p = tmp_path / "model.npz"
        save_model(result, p)
        with np.load(p) as data:
            fields = {
                k: data[k] for k in data.files
                if k not in ("checksum", "num_topics")
            }
        ser._atomic_savez(p, fields)
        with pytest.raises(ValueError, match="malformed"):
            load_model(p)

    def test_wrong_version_rejected(self, result, tmp_path):
        p = tmp_path / "model.npz"
        save_model(result, p)
        # Rewrite with a bumped version.
        with np.load(p) as data:
            fields = {k: data[k] for k in data.files}
        fields["format_version"] = np.int64(99)
        np.savez(p, **fields)
        with pytest.raises(ValueError, match="version"):
            load_model(p)


class TestVocabularyPersistence:
    def test_vocab_round_trip(self, result, tmp_path):
        from repro.corpus.corpus import Vocabulary

        V = result.phi.shape[1]
        vocab = Vocabulary(f"word{i}" for i in range(V)).freeze()
        p = tmp_path / "model_v.npz"
        save_model(result, p, vocabulary=vocab)
        ckpt = load_model(p)
        assert ckpt.vocabulary is not None
        assert len(ckpt.vocabulary) == V
        assert ckpt.vocabulary.word_of(3) == "word3"
        assert ckpt.vocabulary.frozen

    def test_vocab_size_mismatch_rejected(self, result, tmp_path):
        from repro.corpus.corpus import Vocabulary

        bad = Vocabulary(["just-one"]).freeze()
        with pytest.raises(ValueError, match="vocabulary"):
            save_model(result, tmp_path / "x.npz", vocabulary=bad)

    def test_vocab_absent_by_default(self, result, tmp_path):
        p = tmp_path / "model_nv.npz"
        save_model(result, p)
        assert load_model(p).vocabulary is None

    def test_baseline_result_keeps_vocab_and_corpus(self, tmp_path):
        from repro.baselines.warplda import WarpLDA
        from repro.core.model import LDAHyperParams
        from repro.corpus.corpus import Vocabulary
        from repro.corpus.synthetic import nytimes_like

        corpus = nytimes_like(num_tokens=3_000, num_topics=4, seed=11)
        res = WarpLDA(
            corpus, LDAHyperParams(num_topics=4), seed=0
        ).train(iterations=2)
        vocab = Vocabulary(
            f"w{i}" for i in range(corpus.num_words)
        ).freeze()
        p = tmp_path / "warplda.npz"
        save_model(res, p, vocabulary=vocab)
        ckpt = load_model(p)
        assert ckpt.algo == "warplda"
        assert ckpt.corpus_name == corpus.name
        assert ckpt.vocabulary.word_of(1) == "w1"
        assert ckpt.theta == res.theta


class TestFormatCompat:
    def test_theta_optional_in_version2(self, result, tmp_path):
        from types import SimpleNamespace

        bare = SimpleNamespace(
            phi=result.phi,
            hyper=result.hyper,
            corpus_name=result.corpus_name,
            algo="scvb0",
        )
        p = tmp_path / "no_theta.npz"
        save_model(bare, p)
        ckpt = load_model(p)
        assert ckpt.theta is None
        assert ckpt.algo == "scvb0"

    def test_empty_document_theta_round_trip(self, result, tmp_path):
        from types import SimpleNamespace

        from repro.core.model import SparseTheta

        theta = SparseTheta(
            np.array([0, 2, 2, 3]),  # middle document is empty
            np.array([0, 3, 1], dtype=np.uint16),
            np.array([2, 1, 4], dtype=np.int32),
            result.hyper.num_topics,
        )
        doc = SimpleNamespace(
            phi=result.phi,
            theta=theta,
            hyper=result.hyper,
            corpus_name="tiny",
        )
        p = tmp_path / "empty_doc.npz"
        save_model(doc, p)
        ckpt = load_model(p)
        assert ckpt.theta == theta
        topics, counts = ckpt.theta.row(1)
        assert topics.size == 0 and counts.size == 0
        assert ckpt.theta.num_docs == 3


class TestIntegrity:
    """Format 3: atomic writes and SHA-256 content checksums."""

    def test_no_temp_file_left_behind(self, result, tmp_path):
        save_model(result, tmp_path / "model.npz")
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name != "model.npz"]
        assert leftovers == []

    def test_failed_write_leaves_previous_checkpoint(self, result, tmp_path):
        """os.replace semantics: a save that dies mid-write must not
        destroy the last good checkpoint."""
        import repro.core.serialization as ser

        p = tmp_path / "model.npz"
        save_model(result, p)
        good = p.read_bytes()

        real_savez = np.savez_compressed

        def exploding_savez(fh, **fields):
            real_savez(fh, **{k: fields[k] for k in list(fields)[:2]})
            raise OSError("disk full")

        old = ser.np.savez_compressed
        ser.np.savez_compressed = exploding_savez
        try:
            with pytest.raises(OSError):
                save_model(result, p)
        finally:
            ser.np.savez_compressed = old
        assert p.read_bytes() == good
        assert [q.name for q in tmp_path.iterdir()] == ["model.npz"]

    def test_truncated_file_rejected(self, result, tmp_path):
        p = tmp_path / "model.npz"
        save_model(result, p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="truncated|corrupted"):
            load_model(p)

    def test_bit_flip_rejected(self, result, tmp_path):
        p = tmp_path / "model.npz"
        save_model(result, p)
        raw = bytearray(p.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_model(p)

    def test_tampered_field_names_digests(self, result, tmp_path):
        """A valid archive whose contents were rewritten fails the
        checksum with an error naming expected vs actual digest."""
        p = tmp_path / "model.npz"
        save_model(result, p)
        with np.load(p) as data:
            fields = {k: data[k] for k in data.files}
        fields["phi"] = fields["phi"].copy()
        fields["phi"][0, 0] += 1
        np.savez_compressed(p, **fields)
        with pytest.raises(ValueError, match="expected digest"):
            load_model(p)

    def test_checksum_required_for_v3(self, result, tmp_path):
        p = tmp_path / "model.npz"
        save_model(result, p)
        with np.load(p) as data:
            fields = {k: data[k] for k in data.files if k != "checksum"}
        np.savez_compressed(p, **fields)
        with pytest.raises(ValueError, match="checksum"):
            load_model(p)

    @pytest.mark.parametrize("version", [1, 2])
    def test_old_versions_rejected(self, result, tmp_path, version):
        """Formats 1 and 2 predate the checksum and are no longer read."""
        p = tmp_path / "model.npz"
        save_model(result, p)
        with np.load(p) as data:
            fields = {k: data[k] for k in data.files if k != "checksum"}
        fields["format_version"] = np.int64(version)
        np.savez_compressed(p, **fields)
        with pytest.raises(ValueError,
                           match="unsupported checkpoint version"):
            load_model(p)

    def test_run_state_checksummed_too(self, result, tmp_path):
        from repro.core.serialization import load_run_state
        from repro.corpus.synthetic import nytimes_like

        corpus = nytimes_like(num_tokens=8_000, num_topics=8, seed=9)
        trainer = CuLDA(
            corpus, pascal_platform(2),
            TrainConfig(num_topics=8, iterations=2, seed=0),
        )
        p = tmp_path / "run.npz"
        trainer.train(save_every=2, checkpoint_path=p)
        assert load_run_state(p).iteration == 2
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 40])
        with pytest.raises(ValueError, match="truncated|corrupted|integrity"):
            load_run_state(p)
