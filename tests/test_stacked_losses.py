"""Every loss that sharded_step hands stacked (W, m, C) shards equals W
separate calls on the (m, C) shards, byte for byte; so do the whole adapter
loops that call them once per step."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfuda.neighbors
import sfuda.shot
from conftest import shard_loop_step
from sfuda.core import knn_indices, make_rng, softmax
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.head import (BOTTLENECK_PARAMS, HeadConfig, TrainConfig, cross_entropy, init_head,
                        train_supervised)
from sfuda.neighbors import (AadConfig, MemoryBank, NrcConfig, _simplex_nll_grad,
                             aad_adapt, aad_loss, nrc_adapt, nrc_loss, reciprocal_flags,
                             softmax_score_grad)
from sfuda.pcsr import PcsrConfig, pcsr_adapt
from sfuda.shot import ShotConfig, diversity_loss, entropy_loss, im_loss, shot_adapt


def stacked_case(seed, w, m, c, spikes):
    """Logits (W, m, C) whose spiked rows have one class ahead by 1e3, so the
    other classes' probabilities underflow to exactly 0."""
    rng = make_rng(seed)
    logits = rng.normal(scale=3.0, size=(w, m, c))
    if spikes and c > 1:
        hit = rng.random((w, m)) < 0.5
        logits[hit, rng.integers(0, c, size=int(hit.sum()))] += 1e3
    return rng, logits


def assert_stacks(stacked, per_shard):
    """(values (W,), grads (W, m, C)) against W (value, grad) pairs."""
    values, grads = stacked
    assert np.shape(values) == (len(per_shard),)
    for v, g in per_shard:
        assert isinstance(v, float) and g.ndim == 2
    assert np.asarray(values).tobytes() == np.array([v for v, _ in per_shard]).tobytes()
    assert grads.tobytes() == np.stack([g for _, g in per_shard]).tobytes()


def shapes(f):
    """W in 1..5 (1 always drawn once), m in {1, 2, 4}, C in 1..6, with and
    without underflowing rows."""
    f = example(0, 1, 1, 3, True)(example(1, 1, 4, 5, False)(f))
    return settings(max_examples=150, deadline=None)(
        given(st.integers(0, 10 ** 6), st.integers(1, 5), st.sampled_from([1, 2, 4]),
              st.integers(1, 6), st.booleans())(f))


def bank_and_rows(rng, w, m, c, extra):
    """A bank of W*m + extra rows (random unit features, simplex scores) and
    W contiguous shards of distinct batch rows."""
    n = w * m + extra
    feats = rng.normal(size=(n, 4)) + 0.2
    bank = MemoryBank(feats / np.linalg.norm(feats, axis=1, keepdims=True),
                      rng.dirichlet(np.ones(c), size=n))
    return bank, rng.permutation(n)[:w * m].reshape(w, m)


class TestStackedLossesEqualTheShardLoop:
    @shapes
    def test_information_maximization_terms(self, seed, w, m, c, spikes):
        _, logits = stacked_case(seed, w, m, c, spikes)
        for loss in (entropy_loss, diversity_loss, im_loss):
            assert_stacks(loss(logits), [loss(lg) for lg in logits])

    @shapes
    def test_cross_entropy(self, seed, w, m, c, spikes):
        rng, logits = stacked_case(seed, w, m, c, spikes)
        targets = rng.dirichlet(np.ones(c), size=(w, m))
        assert_stacks(cross_entropy(logits, targets),
                      [cross_entropy(lg, t) for lg, t in zip(logits, targets)])

    @shapes
    def test_simplex_diversity_penalty(self, seed, w, m, c, spikes):
        _, logits = stacked_case(seed, w, m, c, spikes)
        p = softmax(logits)
        try:
            per_shard = [_simplex_nll_grad(ps) for ps in p]
        except ValueError:
            # some shard's marginal underflowed to a zero class
            with pytest.raises(ValueError, match="zero class"):
                _simplex_nll_grad(p)
            return
        assert_stacks(_simplex_nll_grad(p), per_shard)

    @shapes
    def test_softmax_score_grad(self, seed, w, m, c, spikes):
        rng, logits = stacked_case(seed, w, m, c, spikes)
        p, dscores = softmax(logits), rng.normal(size=logits.shape)
        got = softmax_score_grad(p, dscores)
        assert got.tobytes() == np.stack(
            [softmax_score_grad(ps, ds) for ps, ds in zip(p, dscores)]).tobytes()

    @shapes
    def test_reciprocal_flags(self, seed, w, m, c, spikes):
        rng, _ = stacked_case(seed, w, m, c, spikes)
        k = int(rng.integers(1, 4))
        bank, rows = bank_and_rows(rng, w, m, c, k + 2)
        table = knn_indices(bank.features, k + 1)
        for knn in (None, table):
            got = reciprocal_flags(bank, k, rows, knn)
            assert got.shape == (w, m, k)
            np.testing.assert_array_equal(
                got, np.stack([reciprocal_flags(bank, k, r, knn) for r in rows]))

    @shapes
    def test_nrc_loss(self, seed, w, m, c, spikes):
        rng, logits = stacked_case(seed, w, m, c, spikes)
        cfg = NrcConfig(K=int(rng.integers(1, 4)), KK=int(rng.integers(1, 4)),
                        r=float(rng.uniform(0.0, 0.5)))
        bank, rows = bank_and_rows(rng, w, m, c, max(cfg.K, cfg.KK) + 2)
        p = softmax(logits)
        try:
            per_shard = [nrc_loss(ps, r, bank, cfg) for ps, r in zip(p, rows)]
        except ValueError:
            with pytest.raises(ValueError, match="zero class"):
                nrc_loss(p, rows, bank, cfg)
            return
        assert_stacks(nrc_loss(p, rows, bank, cfg), per_shard)
        knn = knn_indices(bank.features, max(cfg.K, cfg.KK))
        assert_stacks(nrc_loss(p, rows, bank, cfg, knn=knn), per_shard)

    @shapes
    def test_aad_loss_draws_what_the_shards_draw_in_turn(self, seed, w, m, c, spikes):
        rng, logits = stacked_case(seed, w, m, c, spikes)
        cfg = AadConfig(K=int(rng.integers(1, 4)))
        bank, rows = bank_and_rows(rng, w, m, c, 3 * cfg.K + 2)
        p, lam = softmax(logits), float(rng.uniform(0.0, 1.0))
        shard_rng = make_rng(seed)
        per_shard = [aad_loss(ps, r, bank, lam, cfg, rng=shard_rng) for ps, r in zip(p, rows)]
        stack_rng = make_rng(seed)
        assert_stacks(aad_loss(p, rows, bank, lam, cfg, rng=stack_rng), per_shard)
        # one rng, one stream: both left it in the same state
        assert stack_rng.integers(2 ** 62) == shard_rng.integers(2 ** 62)

    def test_given_backgrounds_stack_too(self):
        rng, logits = stacked_case(3, 4, 2, 5, True)
        cfg = AadConfig(K=2)
        bank, rows = bank_and_rows(rng, 4, 2, 5, 10)
        backgrounds = rng.integers(0, bank.n, size=(4, 2, cfg.background_size))
        p = softmax(logits)
        assert_stacks(aad_loss(p, rows, bank, 0.5, cfg, backgrounds=backgrounds),
                      [aad_loss(ps, r, bank, 0.5, cfg, backgrounds=bg)
                       for ps, r, bg in zip(p, rows, backgrounds)])

    def test_batch_indices_must_match_the_stack(self):
        rng, logits = stacked_case(5, 2, 4, 3, False)
        bank, rows = bank_and_rows(rng, 2, 4, 3, 8)
        p = softmax(logits)
        with pytest.raises(ValueError, match="must match"):
            nrc_loss(p, rows.ravel(), bank, NrcConfig())
        with pytest.raises(ValueError, match="must match"):
            aad_loss(p, rows[:1], bank, 0.0, AadConfig(), rng=make_rng(0))


def reference_step(model, x, shards, objective, sync_batchnorm=False, *, classifier=True):
    """sharded_step as a loop: one forward, one (m, C) objective call and one
    backward per shard, outputs stacked as sharded_step returns them; with
    classifier False only the bottleneck-side gradients are returned."""
    value, grads, outputs = shard_loop_step(
        model, x, shards, lambda _w, rows, logits: objective(rows, logits), sync_batchnorm)
    if not classifier:
        grads = {k: grads[k] for k in BOTTLENECK_PARAMS}
    return value, grads, tuple(np.stack(part) for part in zip(*outputs))


class TestAdaptersMatchTheShardLoop:
    @pytest.fixture(scope="class")
    def setup(self):
        d = 10
        shift = ShiftSpec(np.full(d, 0.3), np.full(d, 1.1), np.zeros(d))
        src, tgt = gen_gaussian_pair(4, d, 40, 5.0, shift, make_rng(21))
        model = init_head(HeadConfig(d, 4, hidden_dim=16, norm_kind="batchnorm", seed=0))
        return tgt, train_supervised(model, src, "classifier_only", TrainConfig(seed=0))

    cells = pytest.mark.parametrize("cell", [DistConfig(4, 16), DistConfig(16, 4)],
                                    ids=lambda c: c.label)
    adapters = pytest.mark.parametrize("adapt, module, cfg", [
        (pcsr_adapt, sfuda.shot, PcsrConfig(epochs=3, batch_size=64, seed=0)),
        (shot_adapt, sfuda.shot, ShotConfig(epochs=3, batch_size=64, seed=0)),
        (nrc_adapt, sfuda.neighbors, NrcConfig(epochs=3, batch_size=64, seed=0)),
        (aad_adapt, sfuda.neighbors, AadConfig(epochs=3, batch_size=64, seed=0)),
    ], ids=["pcsr", "shot", "nrc", "aad"])

    @cells
    @adapters
    def test_final_parameters_are_byte_identical(self, setup, monkeypatch, cell, adapt,
                                                 module, cfg):
        """PCSR mixes every shard and runs a second stacked step on the mixed
        rows; no benchmark workload runs that path with more than one worker."""
        self.check(setup, monkeypatch, cell, adapt, module, cfg, np.float64)

    @cells
    @adapters
    def test_float32_final_parameters_are_byte_identical(self, setup, monkeypatch, cell,
                                                         adapt, module, cfg):
        """The same at float32: a float32 target trains a float32 head."""
        self.check(setup, monkeypatch, cell, adapt, module, cfg, np.float32)

    @staticmethod
    def check(setup, monkeypatch, cell, adapt, module, cfg, dtype):
        tgt, first = setup
        x = tgt.features.astype(dtype)
        stacked = adapt(first, x, cfg, dist=cell)
        monkeypatch.setattr(module, "sharded_step", reference_step)
        looped = adapt(first, x, cfg, dist=cell)
        for name, value in looped.params().items():
            assert value.dtype == dtype, name
            assert stacked.params()[name].tobytes() == value.tobytes(), name
        assert stacked.norm.running_mean.tobytes() == looped.norm.running_mean.tobytes()
