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

    def test_build_bank_keeps_unit_rows(self):
        model = init_head(HeadConfig(4, 3, hidden_dim=6, seed=0))
        bank = build_bank(model, make_rng(1).normal(size=(10, 4)) + 0.3)
        assert bank.unit.tobytes() == l2_normalize_rows(bank.features).tobytes()


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
