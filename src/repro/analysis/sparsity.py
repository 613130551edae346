"""θ-row sparsity evolution — the mechanism behind Fig 7's ramp-up.

The sampling cost is O(K_d) per token (K_d = distinct topics in the
token's document). At iteration 0 topics are uniform-random, so

    K_d(0) = K · (1 − (1 − 1/K)^L_d)

(the coupon-collector expectation). As the model converges documents
concentrate on few topics and K_d falls toward a floor, so tokens/sec
*rises* over the first iterations and then flattens — exactly Fig 7.
The paper also observes PubMed ramps less than NYTimes: its documents
are short (92 vs 332 tokens), so K_d(0) is already near the floor.

:class:`SparsityModel` is an exponential-decay fit

    K_d(t) = kd_inf + (kd0 − kd_inf) · exp(−t/τ)

whose parameters are either measured on a scaled-down twin
(:func:`measure_kd_curve` + :func:`fit_sparsity_model`) or derived from
dataset statistics (:meth:`SparsityModel.from_stats`) for the full-scale
projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.datasets import DatasetStats
from repro.corpus.stats import expected_kd

__all__ = ["SparsityModel", "measure_kd_curve", "fit_sparsity_model"]

#: Converged K_d as a fraction of the initial (random-assignment) K_d,
#: measured on the synthetic twins (see EXPERIMENTS.md calibration).
DEFAULT_CONVERGED_RATIO = 0.35
#: Decay constant in iterations, measured on the synthetic twins.
DEFAULT_TAU = 15.0


@dataclass(frozen=True)
class SparsityModel:
    """Exponential decay of the mean θ-row population."""

    kd0: float
    kd_inf: float
    tau: float

    def __post_init__(self) -> None:
        if self.kd0 <= 0 or self.kd_inf <= 0:
            raise ValueError("kd endpoints must be positive")
        if self.kd_inf > self.kd0:
            raise ValueError("kd_inf cannot exceed kd0 (sparsity only grows)")
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def kd(self, iteration: float | np.ndarray) -> float | np.ndarray:
        """Mean K_d at *iteration* (0-based)."""
        return self.kd_inf + (self.kd0 - self.kd_inf) * np.exp(
            -np.asarray(iteration, dtype=np.float64) / self.tau
        )

    @classmethod
    def from_stats(
        cls,
        stats: DatasetStats,
        num_topics: int,
        converged_ratio: float = DEFAULT_CONVERGED_RATIO,
        tau: float = DEFAULT_TAU,
    ) -> "SparsityModel":
        """Derive the model from dataset shape statistics.

        kd0 is the coupon-collector expectation at the dataset's average
        document length; the floor is ``converged_ratio × kd0``.
        """
        kd0 = expected_kd(stats.avg_doc_length, num_topics)
        # A row can never exceed its document length.
        kd0 = min(kd0, stats.avg_doc_length)
        return cls(kd0=kd0, kd_inf=max(1.0, converged_ratio * kd0), tau=tau)


def measure_kd_curve(
    corpus,
    num_topics: int,
    iterations: int = 30,
    seed: int = 0,
) -> np.ndarray:
    """Measure the mean-K_d-per-token curve by actually sampling.

    Runs the delayed-update Gibbs kernel on *corpus* and records, per
    iteration, Σ K_d(d(token)) / T — the quantity the sampling cost is
    linear in.
    """
    from repro.core.kernels import gibbs_sample_chunk, recount_theta, accumulate_phi
    from repro.core.model import LDAHyperParams, LDAState

    chunk = corpus.to_chunk()
    hyper = LDAHyperParams(num_topics=num_topics)
    state = LDAState.initialize(chunk, hyper, seed=seed)
    rng = np.random.default_rng(seed + 1)
    curve = np.empty(iterations, dtype=np.float64)
    for it in range(iterations):
        new_topics, stats = gibbs_sample_chunk(
            chunk, state.topics, state.theta, state.phi, state.n_k, hyper,
            rng.random(chunk.num_tokens),
        )
        curve[it] = stats.mean_kd
        state.topics = new_topics
        state.theta = recount_theta(chunk, new_topics, num_topics)
        state.phi = accumulate_phi(chunk, new_topics, num_topics)
        state.n_k = state.phi.sum(axis=1, dtype=np.int64)
    return curve


def fit_sparsity_model(curve: np.ndarray) -> SparsityModel:
    """Least-squares fit of the exponential decay to a measured curve."""
    curve = np.asarray(curve, dtype=np.float64)
    if curve.size < 3:
        raise ValueError("need at least 3 points to fit")
    kd0 = float(curve[0])
    kd_inf = float(min(curve.min(), curve[-1]))
    kd_inf = max(kd_inf, 1.0)
    span = kd0 - kd_inf
    if span <= 1e-9:
        return SparsityModel(kd0=kd0, kd_inf=min(kd_inf, kd0), tau=DEFAULT_TAU)
    # Linearize: log((kd - kd_inf)/span) = -t/tau, over positive residuals.
    t = np.arange(curve.size, dtype=np.float64)
    resid = (curve - kd_inf) / span
    mask = resid > 1e-3
    if mask.sum() < 2:
        tau = DEFAULT_TAU
    else:
        slope = np.polyfit(t[mask], np.log(resid[mask]), 1)[0]
        tau = -1.0 / slope if slope < -1e-12 else DEFAULT_TAU
    return SparsityModel(kd0=kd0, kd_inf=kd_inf, tau=float(max(tau, 0.5)))
