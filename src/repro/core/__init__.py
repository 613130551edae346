"""CuLDA_CGS core: the paper's primary contribution.

Public API
----------
- :class:`repro.core.culda.CuLDA` — the multi-GPU LDA trainer (Alg 1 of
  the paper): partition → per-GPU sampling/update kernels → reduce-tree
  φ synchronization, on a simulated machine.
- :class:`repro.core.culda.TrainConfig` / :class:`TrainResult` — run
  configuration and per-iteration results (throughput, likelihood,
  simulated time).
- :class:`repro.core.model.LDAHyperParams`, :class:`SparseTheta`,
  :class:`LDAState` — model containers and invariants.
- :class:`repro.core.index_tree.IndexTree` — the 32-way tree-based
  sampler (Fig 5).
- :mod:`repro.core.sampler` — the sparsity-aware S/Q decomposition
  (Eq 6–8).
- :mod:`repro.core.likelihood` — joint log-likelihood per token (Fig 8's
  y-axis).
"""

from repro.core.alias import AliasTable
from repro.core.blockplan import BlockPlan, plan_blocks, simulate_block_schedule
from repro.core.culda import CuLDA, IterationStats, TrainConfig, TrainResult
from repro.core.distributed import DistributedCuLDA
from repro.core.index_tree import IndexTree
from repro.core.inference import InferenceResult, infer_documents
from repro.core.likelihood import log_likelihood, log_likelihood_per_token
from repro.core.model import LDAHyperParams, LDAState, SparseTheta
from repro.core.serialization import ModelCheckpoint, load_model, save_model

__all__ = [
    "AliasTable",
    "CuLDA",
    "DistributedCuLDA",
    "TrainConfig",
    "TrainResult",
    "IterationStats",
    "IndexTree",
    "LDAHyperParams",
    "LDAState",
    "SparseTheta",
    "log_likelihood",
    "log_likelihood_per_token",
    "InferenceResult",
    "infer_documents",
    "ModelCheckpoint",
    "save_model",
    "load_model",
    "BlockPlan",
    "plan_blocks",
    "simulate_block_schedule",
]
