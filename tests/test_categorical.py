"""Soft-assignment heterogeneity over categorical latent spaces."""

import math

import numpy as np
import pytest

from hetlab.core import renyi_heterogeneity
from hetlab.decomposition import SubsystemEnsemble, decompose
from hetlab.errors import ValidationError


class TestPointHeterogeneity:
    def test_one_hot(self):
        for q in (0.5, 1.0, 2.0, math.inf):
            assert renyi_heterogeneity([0.0, 1.0, 0.0], q) == pytest.approx(1.0, rel=1e-6, abs=0)

    def test_uniform(self):
        for nz in (2, 5, 9):
            row = np.full(nz, 1.0 / nz)
            assert renyi_heterogeneity(row, 1.0) == pytest.approx(nz, rel=1e-6, abs=0)

    def test_hand_value(self):
        assert renyi_heterogeneity([0.8, 0.2], 2.0) == pytest.approx(
            1.0 / 0.68, rel=1e-12, abs=0)


class TestBatch:
    def test_shape_properties(self):
        ens = SubsystemEnsemble(table=[[0.5, 0.5], [1.0, 0.0]])
        assert len(ens.table) == 2
        assert ens.n_states == 2
        assert np.array_equal(ens.table, [[0.5, 0.5], [1.0, 0.0]])

    def test_invalid_rows(self):
        with pytest.raises(ValidationError):
            SubsystemEnsemble(table=[[0.6, 0.6]])


class TestRrhDecompose:
    def test_identical_onehot_rows(self):
        ens = SubsystemEnsemble(table=np.tile([0.0, 1.0, 0.0], (5, 1)))
        res = decompose(ens, [0.0, 1.0, 2.0])
        assert res["between"] == pytest.approx([1.0] * 3, rel=1e-6, abs=0)
        assert res["pooled"] == pytest.approx([1.0] * 3, rel=1e-6, abs=0)

    def test_onehot_counts_give_hill_number(self):
        # hard assignments: between = heterogeneity of the class frequencies
        counts = [3, 1, 6]
        rows = []
        for j, c in enumerate(counts):
            row = np.zeros(3)
            row[j] = 1.0
            rows.extend([row] * c)
        ens = SubsystemEnsemble(table=np.stack(rows))
        freqs = np.array(counts) / sum(counts)
        orders = [0.0, 0.5, 1.0, 2.0]
        res = decompose(ens, orders)
        assert res["within"] == pytest.approx([1.0] * 4, rel=1e-9, abs=0)
        assert res["between"] == pytest.approx(
            [renyi_heterogeneity(freqs, q) for q in orders], rel=1e-9, abs=0)

    def test_uniform_rows_between_one(self):
        ens = SubsystemEnsemble(table=np.full((4, 3), 1 / 3))
        res = decompose(ens, [0.5, 1.0, 2.0])
        assert res["between"] == pytest.approx([1.0] * 3, rel=1e-9, abs=0)
        assert res["within"] == pytest.approx([3.0] * 3, rel=1e-9, abs=0)

    def test_single_row(self):
        ens = SubsystemEnsemble(table=[[0.3, 0.7]])
        assert decompose(ens, [2.0])["between"][0] == pytest.approx(1.0, rel=1e-6, abs=0)
