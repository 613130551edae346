"""Model checkpointing: save/load trained models and mid-run states.

A trained model is (φ, θ, hyperparameters, metadata). Checkpoints are
single ``.npz`` files — the library equivalent of the paper's
"CPU collects the trained model from all GPUs" final step (Alg 1,
lines 17–20).

Format version 3 is the only format read or written. A checkpoint
holds:

- φ, the hyperparameters, the corpus name and the algorithm that wrote
  it; θ is optional (SCVB0 keeps expected counts, not a CSR θ), so any
  trainer's output feeds ``repro-lda infer`` / ``project``;
- with :func:`save_run_state`, the *full* sampler state (per-shard
  topic assignments, θ counts, RNG stream positions, iteration
  history), so a run can stop mid-way and resume bit-identically. A
  run-state file is a superset of a model checkpoint:
  :func:`load_model` reads it too.

Every checkpoint is written atomically (temp file in the same
directory + ``os.replace``), so a crash mid-write can never leave a
half-written file under the checkpoint's name. Every checkpoint embeds
a SHA-256 digest over its canonical contents; loading verifies it and
rejects truncated, corrupted or checksum-less files with an error
naming the file. Files of an older format are rejected as
"unsupported checkpoint version".
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.model import LDAHyperParams, SparseTheta
from repro.corpus.corpus import Vocabulary
from repro.engine.results import IterationStats
from repro.engine.state import RunState, freeze_rng_state, thaw_rng_state

__all__ = [
    "ModelCheckpoint",
    "save_model",
    "load_model",
    "save_run_state",
    "load_run_state",
]

FORMAT_VERSION = 3

#: IterationStats history, serialized as parallel arrays.
_HISTORY_FLOAT_FIELDS = (
    "sim_seconds",
    "tokens_per_sec",
    "mean_kd",
    "p1_fraction",
    "network_seconds",
    "compute_seconds",
)


def _checksum(fields: dict) -> str:
    """SHA-256 over a canonical serialization of the checkpoint fields.

    Stable across save/load: each field contributes its name, dtype,
    shape, and raw bytes, in sorted field order. The digest is identical
    whether computed from the in-memory save dict or the arrays read
    back from the ``.npz``.
    """
    digest = hashlib.sha256()
    for name in sorted(fields):
        arr = np.asarray(fields[name])
        digest.update(name.encode())
        digest.update(arr.dtype.str.encode())
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _atomic_savez(path: str | Path, fields: dict) -> None:
    """Write ``fields`` (+ embedded checksum) to *path* atomically.

    The archive lands in a temp file in the same directory and is moved
    over *path* with ``os.replace``, so readers never observe a
    half-written checkpoint even if the writer crashes mid-save.
    """
    path = Path(path)
    fields = dict(fields)
    fields["checksum"] = np.array(_checksum(fields))
    tmp = path.with_name(path.name + ".tmp")
    try:
        # An open handle keeps np.savez_compressed from appending .npz
        # to the temp name.
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **fields)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_npz(path: Path):
    """np.load with unreadable archives mapped to a clear ValueError."""
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, OSError) as exc:
        raise ValueError(
            f"checkpoint {path} is truncated or not a valid .npz archive "
            f"({exc}); it cannot be loaded"
        ) from exc


def _verify(data, path: Path) -> None:
    """Check the file's version and verify its embedded digest."""
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version} in {path} "
            f"(expected {FORMAT_VERSION})"
        )
    if "checksum" not in data.files:
        raise ValueError(
            f"checkpoint {path} is missing its integrity checksum; the "
            "file was tampered with or written by a broken writer"
        )
    expected = str(data["checksum"])
    try:
        fields = {
            name: data[name] for name in data.files if name != "checksum"
        }
        actual = _checksum(fields)
    except Exception as exc:
        raise ValueError(
            f"checkpoint {path} is corrupted: reading its contents "
            f"failed ({exc})"
        ) from exc
    if actual != expected:
        raise ValueError(
            f"checkpoint {path} failed integrity verification: expected "
            f"digest {expected} but contents hash to {actual}; the file "
            "is truncated, corrupted, or was modified after writing"
        )


@dataclass(frozen=True)
class ModelCheckpoint:
    """A loaded model checkpoint."""

    phi: np.ndarray
    theta: SparseTheta | None
    hyper: LDAHyperParams
    corpus_name: str
    vocabulary: "Vocabulary | None" = None
    algo: str = "culda"

    @property
    def num_topics(self) -> int:
        return self.hyper.num_topics

    @property
    def num_words(self) -> int:
        return int(self.phi.shape[1])


def _model_fields(
    phi: np.ndarray,
    theta: SparseTheta | None,
    hyper: LDAHyperParams,
    corpus_name: str,
    algo: str,
    vocabulary,
) -> dict:
    fields = dict(
        format_version=np.int64(FORMAT_VERSION),
        phi=phi,
        num_topics=np.int64(hyper.num_topics),
        alpha=np.float64(hyper.alpha),
        beta=np.float64(hyper.beta),
        corpus_name=np.array(corpus_name),
        algo=np.array(algo),
    )
    if theta is not None:
        fields["theta_indptr"] = theta.indptr
        fields["theta_indices"] = theta.indices
        fields["theta_data"] = theta.data
    if vocabulary is not None:
        if len(vocabulary) != phi.shape[1]:
            raise ValueError("vocabulary size does not match phi columns")
        fields["vocabulary"] = np.array(list(vocabulary), dtype=np.str_)
    return fields


def save_model(result, path: str | Path, vocabulary=None) -> None:
    """Persist a :class:`~repro.engine.results.TrainResult` (or anything
    with ``phi``/``hyper``/``corpus_name``, optionally ``theta`` and
    ``algo``) to *path* (.npz).

    Pass the corpus ``vocabulary`` to store human-readable words with
    the model (so ``load_model(...).vocabulary.word_of(id)`` works).
    """
    fields = _model_fields(
        result.phi,
        getattr(result, "theta", None),
        result.hyper,
        result.corpus_name,
        str(getattr(result, "algo", "culda")),
        vocabulary,
    )
    _atomic_savez(path, fields)


def load_model(path: str | Path) -> ModelCheckpoint:
    """Load a checkpoint written by :func:`save_model` or
    :func:`save_run_state`.

    Raises
    ------
    ValueError
        On missing fields, an unsupported format version or a failed
        integrity check.
    """
    path = Path(path)
    with _load_npz(path) as data:
        try:
            _verify(data, path)
            hyper = LDAHyperParams(
                num_topics=int(data["num_topics"]),
                alpha=float(data["alpha"]),
                beta=float(data["beta"]),
            )
            theta = None
            if "theta_indptr" in data.files:
                theta = SparseTheta(
                    data["theta_indptr"],
                    data["theta_indices"],
                    data["theta_data"],
                    hyper.num_topics,
                )
            vocab = None
            if "vocabulary" in data.files:
                vocab = Vocabulary(str(w) for w in data["vocabulary"])
                vocab.freeze()
            return ModelCheckpoint(
                phi=np.asarray(data["phi"]),
                theta=theta,
                hyper=hyper,
                corpus_name=str(data["corpus_name"]),
                vocabulary=vocab,
                algo=str(data["algo"]),
            )
        except KeyError as exc:
            raise ValueError(f"malformed checkpoint {path}: missing {exc}") from exc


# ----------------------------------------------------------------------
# Full run-state checkpoints (mid-run save / bit-identical resume)
# ----------------------------------------------------------------------
def save_run_state(
    state: RunState,
    path: str | Path,
    *,
    hyper: LDAHyperParams,
    corpus_name: str,
    vocabulary=None,
) -> None:
    """Write a full sampler-state checkpoint for *state* to *path*.

    The file doubles as a model checkpoint (φ, hyperparameters,
    vocabulary), so inference tooling accepts it directly; the extra
    ``run_*`` fields carry what resume needs for bit-identical
    continuation.
    """
    if state.phi is None:
        raise ValueError("run state carries no phi; call capture_state first")
    fields = _model_fields(
        np.asarray(state.phi), None, hyper, corpus_name, state.algo, vocabulary
    )
    fields.update(
        run_iteration=np.int64(state.iteration),
        run_sim_seconds=np.float64(state.sim_seconds),
        run_num_shards=np.int64(len(state.topics)),
        run_has_theta=np.int64(state.thetas is not None),
        run_rng_states=np.array(
            [freeze_rng_state(g) for g in state.rngs], dtype=np.str_
        ),
    )
    for i, topics in enumerate(state.topics):
        fields[f"run_topics_{i}"] = topics
    if state.thetas is not None:
        for i, theta in enumerate(state.thetas):
            fields[f"run_theta_indptr_{i}"] = theta.indptr
            fields[f"run_theta_indices_{i}"] = theta.indices
            fields[f"run_theta_data_{i}"] = theta.data
    fields["run_extra_keys"] = np.array(sorted(state.extras), dtype=np.str_)
    for key, value in state.extras.items():
        fields[f"run_extra_{key}"] = np.asarray(value)
    history = state.history
    fields["run_hist_iteration"] = np.array(
        [s.iteration for s in history], dtype=np.int64
    )
    for name in _HISTORY_FLOAT_FIELDS:
        fields[f"run_hist_{name}"] = np.array(
            [getattr(s, name) for s in history], dtype=np.float64
        )
    fields["run_hist_ll"] = np.array(
        [
            np.nan
            if s.log_likelihood_per_token is None
            else s.log_likelihood_per_token
            for s in history
        ],
        dtype=np.float64,
    )
    _atomic_savez(path, fields)


def load_run_state(path: str | Path) -> RunState:
    """Load a run-state checkpoint written by :func:`save_run_state`.

    Raises
    ------
    ValueError
        If the file is a plain model checkpoint (no sampler state), is
        malformed, or has an unsupported version.
    """
    path = Path(path)
    with _load_npz(path) as data:
        try:
            _verify(data, path)
            if "run_iteration" not in data.files:
                raise ValueError(
                    f"{path} is a model checkpoint, not a run-state "
                    "checkpoint; it cannot seed --resume"
                )
            num_topics = int(data["num_topics"])
            num_shards = int(data["run_num_shards"])
            topics = [data[f"run_topics_{i}"] for i in range(num_shards)]
            thetas = None
            if int(data["run_has_theta"]):
                thetas = [
                    SparseTheta(
                        data[f"run_theta_indptr_{i}"],
                        data[f"run_theta_indices_{i}"],
                        data[f"run_theta_data_{i}"],
                        num_topics,
                    )
                    for i in range(num_shards)
                ]
            rngs = [thaw_rng_state(str(s)) for s in data["run_rng_states"]]
            extras = {
                str(key): np.asarray(data[f"run_extra_{key}"])
                for key in data["run_extra_keys"]
            }
            lls = data["run_hist_ll"]
            floats = {
                name: data[f"run_hist_{name}"] for name in _HISTORY_FLOAT_FIELDS
            }
            history = [
                IterationStats(
                    iteration=int(it),
                    log_likelihood_per_token=(
                        None if np.isnan(lls[i]) else float(lls[i])
                    ),
                    **{name: float(floats[name][i]) for name in floats},
                )
                for i, it in enumerate(data["run_hist_iteration"])
            ]
            return RunState(
                algo=str(data["algo"]),
                iteration=int(data["run_iteration"]),
                sim_seconds=float(data["run_sim_seconds"]),
                history=history,
                phi=np.asarray(data["phi"]),
                topics=topics,
                thetas=thetas,
                rngs=rngs,
                extras=extras,
            )
        except KeyError as exc:
            raise ValueError(f"malformed checkpoint {path}: missing {exc}") from exc
