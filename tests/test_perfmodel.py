"""Tests for the full-scale analytic projection (Tables 4-5, Figs 7/9).

These assert the paper's *shapes*: orderings, ratios within tolerance,
ramp directions — the reproduction contract stated in DESIGN.md §5.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.corpus.datasets import NYTIMES, PUBMED
from repro.gpusim.platform import (
    GPU_A100,
    GPU_TITAN_X,
    GPU_TITAN_XP,
    GPU_V100,
    NVLINK_P2P_GBPS,
)
from repro.perfmodel.projection import (
    ProjectionConfig,
    fig7_series,
    fig9_scaling,
    project_iteration_seconds,
    project_series,
    table4_throughput,
    table5_breakdown,
)

CFG = ProjectionConfig(iterations=100)


def _avg_tokens_per_sec(stats, series):
    """Average tokens/sec over a projected series (Table 4's metric)."""
    return stats.num_tokens * len(series) / (stats.num_tokens / series).sum()


@pytest.fixture(scope="module")
def table4():
    return table4_throughput(CFG)


class TestTable4:
    # Paper values (M tokens/sec).
    PAPER_NYT = {"Titan": 173.6, "Pascal": 208.0, "Volta": 633.0, "WarpLDA": 108.0}
    PAPER_PUBMED = {"Titan": 155.6, "Pascal": 213.0, "Volta": 686.2, "WarpLDA": 93.5}

    def test_nytimes_close_to_paper(self, table4):
        for platform, paper in self.PAPER_NYT.items():
            ours = table4["NYTimes"][platform] / 1e6
            assert ours == pytest.approx(paper, rel=0.10), platform

    def test_pubmed_shape(self, table4):
        """PubMed absolute numbers deviate (see EXPERIMENTS.md) but the
        ordering Volta > Pascal > Titan > WarpLDA must hold, and the
        WarpLDA anchor matches the paper."""
        row = table4["PubMed"]
        assert row["Volta"] > row["Pascal"] > row["Titan"] > row["WarpLDA"]
        assert row["WarpLDA"] / 1e6 == pytest.approx(93.5, rel=0.05)
        # Within 2x of the paper everywhere.
        for platform, paper in self.PAPER_PUBMED.items():
            assert row[platform] / 1e6 == pytest.approx(paper, rel=1.0)

    def test_headline_speedup_over_warplda(self, table4):
        """§7.2: 1.61x–7.34x over WarpLDA; ours must land in that band
        at the extremes (within tolerance)."""
        ratios = [
            table4[ds][p] / table4[ds]["WarpLDA"]
            for ds in ("NYTimes", "PubMed")
            for p in ("Titan", "Pascal", "Volta")
        ]
        assert min(ratios) > 1.2
        assert 5.0 < max(ratios) < 9.0

    def test_volta_speedup_over_titan(self, table4):
        """Paper §7.1: ~4.03x Volta/Titan (NYTimes+PubMed average 3.65-4x),
        and its "scales to future GPUs" claim tested forward on an A100:
        NYTimes tracks the bandwidth ratio, and PubMed gains at least as
        much because 40 GB makes it resident (no PCIe streaming)."""
        r = table4["NYTimes"]["Volta"] / table4["NYTimes"]["Titan"]
        assert 3.0 < r < 4.5

        def a100_speedup(stats):
            return _avg_tokens_per_sec(
                stats, project_series(stats, GPU_A100, CFG)
            ) / _avg_tokens_per_sec(stats, project_series(stats, GPU_V100, CFG))

        bw_ratio = GPU_A100.peak_bandwidth_gbps / GPU_V100.peak_bandwidth_gbps
        nyt = a100_speedup(NYTIMES)
        assert nyt == pytest.approx(bw_ratio, rel=0.15)
        assert a100_speedup(PUBMED) > 0.95 * nyt


class TestTable5:
    def test_sampling_dominates(self):
        t5 = table5_breakdown(CFG)
        for platform, row in t5.items():
            assert row["sampling"] > 0.75, platform
            assert row["sampling"] > row["update_theta"] > 0
            assert row["update_phi"] > 0
            assert sum(row.values()) == pytest.approx(1.0)

    def test_close_to_paper_fractions(self):
        """Paper Table 5 (Titan): 87.7 / 8.0 / 4.3."""
        row = table5_breakdown(CFG)["Titan"]
        assert row["sampling"] == pytest.approx(0.877, abs=0.06)
        assert row["update_theta"] == pytest.approx(0.08, abs=0.04)
        assert row["update_phi"] == pytest.approx(0.043, abs=0.03)


class TestFig7:
    def test_ramp_up_then_steady(self):
        s = fig7_series("NYTimes", CFG)["Volta"]
        assert s[-1] > 1.5 * s[0]                 # visible ramp
        assert abs(s[-1] - s[-10]) / s[-1] < 0.02  # flat tail
        for dataset in ("NYTimes", "PubMed"):
            series = fig7_series(dataset, CFG)
            for platform in ("Titan", "Pascal", "Volta"):
                s = series[platform]
                assert s[-1] >= s[0], (dataset, platform)
                assert abs(s[-1] - s[-5]) / s[-1] < 0.02, (dataset, platform)

    def test_pubmed_ramps_less_than_nytimes(self):
        """§7.1: PubMed's initial sparsity is higher, so its curve is
        flatter."""
        nyt = fig7_series("NYTimes", CFG)["Volta"]
        pm = fig7_series("PubMed", CFG)["Volta"]
        assert (nyt[-1] / nyt[0]) > (pm[-1] / pm[0])

    def test_platform_ordering(self):
        """GPU generations order at every iteration; the CPU anchor is
        beaten from early on (the very first iterations may cross — the
        paper's Titan curve also starts near WarpLDA's level)."""
        s = fig7_series("NYTimes", CFG)
        assert np.all(s["Titan"][5:] > s["WarpLDA"][5:])
        for dataset in ("NYTimes", "PubMed"):
            s = fig7_series(dataset, CFG)
            assert np.all(s["Volta"] > s["Pascal"]), dataset
            assert np.all(s["Pascal"] > s["Titan"]), dataset

    def test_warplda_series_flat(self):
        w = fig7_series("NYTimes", CFG)["WarpLDA"]
        assert np.allclose(w, w[0])


class TestFig9:
    def test_speedups_close_to_paper(self):
        """Paper: 1.93x at 2 GPUs, 2.99x at 4 GPUs on PubMed/Pascal."""
        f9 = fig9_scaling(CFG)
        assert f9[1]["speedup"] == pytest.approx(1.0)
        assert f9[2]["speedup"] == pytest.approx(1.93, abs=0.25)
        assert f9[4]["speedup"] == pytest.approx(2.99, abs=0.45)

    def test_sublinear_but_monotone(self):
        f9 = fig9_scaling(CFG)
        assert 1.0 < f9[2]["speedup"] < 2.0
        assert f9[2]["speedup"] < f9[4]["speedup"] < 4.0
        # Much of the 4-GPU shortfall is the PCIe sync tax: the same
        # projection over the NVLink fabric §3 cites scales better.
        nvlink = fig9_scaling(
            ProjectionConfig(iterations=100, p2p_gbps=NVLINK_P2P_GBPS)
        )
        assert nvlink[4]["speedup"] > f9[4]["speedup"]
        assert nvlink[4]["speedup"] > 3.2


class TestIterationModel:
    def test_components_positive(self):
        parts = project_iteration_seconds(NYTIMES, GPU_V100, CFG, kd_token=100.0)
        for key in ("sampling", "update_theta", "update_phi", "total"):
            assert parts[key] > 0
        assert parts["sync"] == 0.0  # single GPU

    def test_sync_appears_multi_gpu(self):
        parts = project_iteration_seconds(
            PUBMED, GPU_TITAN_XP, CFG, kd_token=30.0, num_gpus=4
        )
        assert parts["sync"] > 0

    def test_pubmed_streams_nytimes_resident(self):
        """The memory story: NYTimes fits one GPU; PubMed must stream
        (which is why its big-GPU throughput is PCIe-flavoured)."""
        nyt = project_iteration_seconds(NYTIMES, GPU_V100, CFG, kd_token=100.0)
        pm = project_iteration_seconds(PUBMED, GPU_V100, CFG, kd_token=30.0)
        assert nyt["transfer"] == 0.0
        assert pm["transfer"] > 0.0

    def test_higher_kd_slower(self):
        """Per-token cost follows K_d, not K: a denser θ is slower, while
        8x the topics (1k -> 8k, K_d saturating near the document
        length) costs far less than 8x."""
        fast = project_iteration_seconds(NYTIMES, GPU_TITAN_X, CFG, kd_token=40.0)
        slow = project_iteration_seconds(NYTIMES, GPU_TITAN_X, CFG, kd_token=280.0)
        assert slow["total"] > fast["total"]

        def tokens_per_sec(num_topics):
            cfg = ProjectionConfig(num_topics=num_topics, iterations=100)
            return _avg_tokens_per_sec(
                NYTIMES, project_series(NYTIMES, GPU_V100, cfg)
            )

        assert tokens_per_sec(8192) > tokens_per_sec(1024) / 3.0

    def test_series_length(self):
        s = project_series(NYTIMES, GPU_TITAN_X, ProjectionConfig(iterations=17))
        assert s.shape == (17,)
