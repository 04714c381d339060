import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfuda import core
from sfuda.core import l2_normalize_rows, make_rng
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.head import HeadConfig, TrainConfig, init_head, train_supervised
from sfuda.neighbors import (AadConfig, MemoryBank, NrcConfig, aad_adapt, build_bank,
                             nrc_adapt)


@st.composite
def banks_and_refreshes(draw):
    """A bank of unit rows and a few refreshes, each of some rows (repeats
    allowed) with fresh unnormalized features and simplex scores."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    rng = make_rng(draw(st.integers(0, 10 ** 6)))
    feats = rng.normal(size=(n, d)) + 0.1
    bank = MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                      rng.dirichlet(np.ones(3), size=n))
    refreshes = []
    for _ in range(draw(st.integers(1, 6))):
        rows = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        refreshes.append((rows, scale * rng.normal(size=(rows.size, d)) + 0.1,
                          rng.dirichlet(np.ones(3), size=rows.size)))
    return bank, refreshes


class TestUnitRows:
    @given(banks_and_refreshes())
    @settings(max_examples=150, deadline=None)
    def test_unit_rows_stay_the_normalized_features(self, case):
        bank, refreshes = case
        assert bank.unit.tobytes() == l2_normalize_rows(bank.features).tobytes()
        for rows, feats, scores in refreshes:
            bank.refresh(rows, feats, scores)
            assert bank.unit.tobytes() == l2_normalize_rows(bank.features).tobytes()

    def test_float32_features_keep_float64_unit_rows(self):
        """The ranking reads unit rows in float64 whatever the features' dtype."""
        rng = make_rng(3)
        feats = l2_normalize_rows(rng.normal(size=(12, 5))).astype(np.float32)
        bank = MemoryBank(feats, rng.dirichlet(np.ones(3), size=12).astype(np.float32))
        bank.refresh(np.array([4, 1, 4]), rng.normal(size=(3, 5)).astype(np.float32),
                     rng.dirichlet(np.ones(3), size=3).astype(np.float32))
        assert bank.features.dtype == np.float32 and bank.unit.dtype == np.float64
        want = l2_normalize_rows(bank.features.astype(np.float64))
        assert bank.unit.tobytes() == want.tobytes()

    def test_build_bank_keeps_unit_rows(self):
        model = init_head(HeadConfig(4, 3, hidden_dim=6, seed=0))
        bank = build_bank(model, make_rng(1).normal(size=(10, 4)) + 0.3)
        assert bank.unit.tobytes() == l2_normalize_rows(bank.features).tobytes()


class TestRoundingBounds:
    """Unit norms and simplex sums are checked to core.rounding_tol: 1e-6 at
    float64, a bound scaled to the row length at float32."""

    @staticmethod
    def rows(dtype, off):
        rng = make_rng(2)
        feats = l2_normalize_rows(rng.normal(size=(8, 256))).astype(dtype)
        scores = core.softmax(rng.normal(size=(8, 65))).astype(dtype)
        feats[0] *= dtype(1.0 + off)
        scores[1, 0] += dtype(off)
        return feats, scores

    def test_float32_rows_inside_their_bound_are_accepted(self):
        bank = MemoryBank(*self.rows(np.float32, 5e-6))
        assert bank.features.dtype == bank.scores.dtype == np.float32

    @pytest.mark.parametrize("dtype, off", [(np.float64, 2e-6), (np.float32, 1e-3)])
    @pytest.mark.parametrize("broken", ["features", "scores"])
    def test_rows_past_the_bound_are_rejected(self, dtype, off, broken):
        feats, scores = self.rows(dtype, 0.0)
        off_feats, off_scores = self.rows(dtype, off)
        args = (off_feats, scores) if broken == "features" else (feats, off_scores)
        with pytest.raises(ValueError, match="unit norm" if broken == "features" else "simplex"):
            MemoryBank(*args)


def adapt_setup():
    d = 10
    shift = ShiftSpec(np.full(d, 0.3), np.full(d, 1.1), np.zeros(d))
    src, tgt = gen_gaussian_pair(4, d, 75, 5.0, shift, make_rng(13))
    model = init_head(HeadConfig(d, 4, hidden_dim=32, seed=0))
    return tgt, train_supervised(model, src, "classifier_only", TrainConfig(seed=0))


class TestStepNormalization:
    @pytest.mark.parametrize("cell", [None, DistConfig(16, 4)],
                             ids=lambda c: c.label if c else "plain")
    @pytest.mark.parametrize("adapt, cfg", [
        (nrc_adapt, NrcConfig(K=2, KK=3, epochs=2, batch_size=64, seed=0)),
        (aad_adapt, AadConfig(epochs=2, batch_size=64, seed=0)),
    ], ids=["nrc", "aad"])
    def test_steps_normalize_only_refreshed_rows(self, monkeypatch, cell, adapt, cfg):
        """Once the bank is built, a step normalizes the b rows it refreshes,
        twice (features, then unit rows), and never all n bank rows."""
        import sfuda.neighbors as neighbors

        sizes, built = [], []
        real_normalize, real_build = core.l2_normalize_rows, neighbors.build_bank

        def normalize(m):
            if built:
                sizes.append(len(m))
            return real_normalize(m)

        def build(*args):
            bank = real_build(*args)
            built.append(bank.n)
            return bank

        for module in (core, neighbors):
            monkeypatch.setattr(module, "l2_normalize_rows", normalize)
        monkeypatch.setattr(neighbors, "build_bank", build)
        tgt, first = adapt_setup()
        adapt(first, tgt.features, cfg, dist=cell)
        n, b = tgt.features.shape[0], cfg.batch_size
        assert built == [n]
        assert sizes == [b] * (2 * cfg.epochs * (n // b))
