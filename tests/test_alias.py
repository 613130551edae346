"""Tests for Vose alias tables (the competing O(1) sampler design)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from repro.core.alias import AliasTable
from repro.core.index_tree import IndexTree


class TestConstruction:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            AliasTable(np.array([]))
        with pytest.raises(ValueError):
            AliasTable(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            AliasTable(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            AliasTable(np.array([np.inf]))

    def test_uniform(self):
        t = AliasTable(np.ones(4))
        assert np.allclose(t.prob, 1.0)

    def test_implied_distribution_exact(self):
        rng = np.random.default_rng(0)
        w = rng.random(37)
        t = AliasTable(w)
        assert np.allclose(t.implied_distribution(), w / w.sum(), atol=1e-12)

    def test_implied_distribution_with_zeros(self):
        w = np.array([0.0, 3.0, 0.0, 1.0])
        t = AliasTable(w)
        assert np.allclose(t.implied_distribution(), w / w.sum(), atol=1e-12)


class TestSampling:
    def test_single_element(self):
        t = AliasTable(np.array([2.0]))
        assert t.sample(0.3, 0.9) == 0

    def test_zero_weight_never_drawn(self):
        t = AliasTable(np.array([0.0, 1.0, 0.0]))
        rng = np.random.default_rng(1)
        draws = t.sample_many(rng.random(5000), rng.random(5000))
        assert set(np.unique(draws)) == {1}

    def test_distribution_chi_square(self):
        w = np.array([0.1, 0.5, 0.15, 0.25])
        t = AliasTable(w)
        rng = np.random.default_rng(2)
        n = 40_000
        draws = t.sample_many(rng.random(n), rng.random(n))
        observed = np.bincount(draws, minlength=4)
        _, pvalue = chisquare(observed, w / w.sum() * n)
        assert pvalue > 1e-4

    def test_shape_mismatch_rejected(self):
        t = AliasTable(np.ones(3))
        with pytest.raises(ValueError):
            t.sample_many(np.zeros(2), np.zeros(3))

    def test_same_distribution_as_index_tree(self):
        """Tree and alias table encode the same multinomial: their draw
        histograms over many samples must agree (two-sample check via
        expected counts)."""
        rng = np.random.default_rng(5)
        w = rng.random(64)
        tree = IndexTree(w)
        table = AliasTable(w)
        n = 50_000
        tree_draws = tree.sample_many(rng.random(n) * tree.total)
        tbl_draws = table.sample_many(rng.random(n), rng.random(n))
        p = w / w.sum()
        for draws in (tree_draws, tbl_draws):
            observed = np.bincount(draws, minlength=64)
            mask = p * n >= 5
            _, pvalue = chisquare(
                observed[mask], p[mask] / p[mask].sum() * observed[mask].sum()
            )
            assert pvalue > 1e-4
        # Same distribution, but the tree's internal levels are a small
        # fraction of the alias table's two K-length arrays.
        alias_nbytes = table.prob.nbytes + table.alias.nbytes
        assert tree.internal_nbytes(4) < alias_nbytes / 5


class TestProperties:
    @given(
        n=st.integers(1, 200),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_implied_distribution_recovers_weights(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(n) + 1e-9
        t = AliasTable(w)
        assert np.allclose(t.implied_distribution(), w / w.sum(), atol=1e-9)

    @given(
        n=st.integers(1, 100),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_in_range_and_positive_weight(self, n, seed):
        rng = np.random.default_rng(seed)
        w = rng.random(n)
        w[rng.random(n) < 0.3] = 0.0
        if w.sum() == 0:
            w[0] = 1.0
        t = AliasTable(w)
        draws = t.sample_many(rng.random(200), rng.random(200))
        assert draws.min() >= 0 and draws.max() < n
        assert np.all(w[draws] > 0)
