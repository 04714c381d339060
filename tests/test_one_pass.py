"""Each intermediate of a training step is computed once, in place where
nothing keeps it, and every output keeps its bits: the shared softmax pass,
the batch statistics, forward and backward, the losses that take a pass and
the NRC/AAD bank refresh, each against the expression it replaced, kept here
as the oracle. float32 and float64, (m, ...) and stacked (W, m, ...) shapes,
batchnorm and layernorm, relu and gelu."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

import sfuda.neighbors
from sfuda.core import as_compute, log_softmax, make_rng, softmax, softmax_pass
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.head import (HeadConfig, TrainConfig, _mean, backward, cross_entropy, forward,
                        init_head, train_supervised)
from sfuda.neighbors import AadConfig, MemoryBank, NrcConfig, aad_adapt, nrc_adapt
from sfuda.shot import diversity_loss, entropy_loss, im_loss

DTYPES = [np.float32, np.float64]


# ---------------------------------------------------------------- oracles

def oracle_softmax(logits):
    z = as_compute(logits)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_log_softmax(logits):
    z = as_compute(logits)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def oracle_forward(model, x, mode):
    """forward as np.mean and np.var wrote it, one array per step; returns
    (logits, feats, xhat, inv, y) and updates model's running statistics."""
    x = as_compute(x)
    b = x.shape[-2]
    norm = model.norm
    z = x @ model.bottleneck_weight + model.bottleneck_bias
    if norm.kind == "batchnorm":
        if mode == "train":
            mu = z.mean(axis=-2, keepdims=True)
            var = z.var(axis=-2, keepdims=True)
            inv = 1.0 / np.sqrt(var + norm.eps)
            xhat = (z - mu) * inv
            m, h = norm.momentum, z.shape[-1]
            for mu_w, var_w in zip(mu.reshape(-1, h), var.reshape(-1, h)):
                norm.running_mean = (1.0 - m) * norm.running_mean + m * mu_w
                norm.running_var = (1.0 - m) * norm.running_var + m * var_w * b / (b - 1)
        else:
            inv = 1.0 / np.sqrt(norm.running_var + norm.eps)
            xhat = (z - norm.running_mean) * inv
    else:
        mu = z.mean(axis=-1, keepdims=True)
        var = z.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + norm.eps)
        xhat = (z - mu) * inv
    y = norm.gamma * xhat + norm.beta
    if model.activation == "relu":
        feats = np.maximum(y, 0.0)
    else:
        feats = y * 0.5 * (1.0 + erf(y / math.sqrt(2.0)))
    logits = feats @ model.classifier_weight + model.classifier_bias
    return logits, feats, xhat, inv, y


def oracle_backward(model, mode, x, xhat, inv, y, feats, dlogits):
    """backward's gradients as one expression per step, per shard."""
    norm = model.norm
    dfeats = dlogits @ model.classifier_weight.T
    if model.activation == "relu":
        dy = dfeats * (y > 0)
    else:
        phi = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
        dy = dfeats * (0.5 * (1.0 + erf(y / math.sqrt(2.0))) + y * phi)
    dxhat = dy * norm.gamma
    if norm.kind == "batchnorm" and mode == "eval":
        dz = dxhat * inv
    else:
        axis = -2 if norm.kind == "batchnorm" else -1
        dz = inv * (dxhat - dxhat.mean(axis=axis, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=axis, keepdims=True))
    grads = {"bottleneck_weight": np.swapaxes(x, -1, -2) @ dz,
             "bottleneck_bias": dz.sum(axis=-2),
             "gamma": (dy * xhat).sum(axis=-2), "beta": dy.sum(axis=-2),
             "classifier_weight": np.swapaxes(feats, -1, -2) @ dlogits,
             "classifier_bias": dlogits.sum(axis=-2)}
    if x.ndim == 3:
        grads = {k: sum(g[1:], g[0]) for k, g in grads.items()}
    return grads


def oracle_cross_entropy(logits, targets):
    targets = as_compute(targets)
    b = logits.shape[-2]
    value = -(targets * oracle_log_softmax(logits)).sum(axis=(-2, -1)) / b
    return value, (oracle_softmax(logits) - targets) / b


def oracle_entropy(logits):
    b = logits.shape[-2]
    logp = oracle_log_softmax(logits)
    p = np.exp(logp)
    plogp = np.where(p > 0.0, p * logp, 0.0)
    h_rows = -plogp.sum(axis=-1)
    grad = np.where(p > 0.0, -p * (logp + h_rows[..., None]), 0.0) / b
    return h_rows.mean(axis=-1), grad


def oracle_diversity(logits):
    b = logits.shape[-2]
    logp = oracle_log_softmax(logits)
    p = np.exp(logp)
    m = logp.max(axis=-2, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    log_pbar = (np.log(np.exp(logp - m).sum(axis=-2, keepdims=True)) + m
                - np.log(logp.dtype.type(b)))
    pbar = np.exp(log_pbar)
    value = np.where(pbar > 0.0, pbar * log_pbar, 0.0).sum(axis=(-2, -1))
    inner = np.where(p > 0.0, p * log_pbar, 0.0)
    return value, (inner - p * inner.sum(axis=-1, keepdims=True)) / b


def oracle_im(logits):
    ve, ge = oracle_entropy(logits)
    vd, gd = oracle_diversity(logits)
    return ve + vd, ge + gd


# ---------------------------------------------------------------- helpers

def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def logits_case(seed, shape, dtype, spikes):
    """Logits of shape (..., C); spiked rows have one class ahead by 1e3, so
    the others' probabilities underflow to exactly 0."""
    rng = make_rng(seed)
    logits = rng.normal(scale=3.0, size=shape)
    if spikes:
        rows = logits.reshape(-1, shape[-1])
        hit = rng.random(len(rows)) < 0.5
        rows[hit, rng.integers(0, shape[-1], size=int(hit.sum()))] += 1e3
    return rng, logits.astype(dtype)


def loss_shapes(f):
    """(m, C) or (W, m, C) logits, float32 or float64, with and without
    underflowing rows."""
    shape = st.tuples(st.integers(1, 4), st.sampled_from([1, 2, 5]), st.integers(1, 7))
    return settings(max_examples=60, deadline=None)(
        given(st.integers(0, 10 ** 6), shape, st.booleans(), st.sampled_from(DTYPES),
              st.booleans())(f))


def head_case(seed, norm_kind, activation, dtype, d=6, h=5, c=4):
    """A head whose norm and classifier tensors are off their init values."""
    rng = make_rng(seed)
    model = init_head(HeadConfig(d, c, hidden_dim=h, norm_kind=norm_kind,
                                 activation=activation, seed=seed))
    model.bottleneck_bias = rng.normal(size=h)
    model.norm.gamma = rng.uniform(0.5, 1.5, size=h)
    model.norm.beta = rng.normal(scale=0.3, size=h)
    model.classifier_bias = rng.normal(size=c)
    if norm_kind == "batchnorm":
        model.norm.running_mean = rng.normal(size=h)
        model.norm.running_var = rng.uniform(0.5, 2.0, size=h)
    return rng, model.copy(dtype)


# ---------------------------------------------------------------- softmax

class TestSoftmaxPass:
    @loss_shapes
    def test_its_halves_are_the_two_softmaxes(self, seed, shape, stacked, dtype, spikes):
        w, m, c = shape
        _, logits = logits_case(seed, (w, m, c) if stacked else (m, c), dtype, spikes)
        logp, p = softmax_pass(logits)
        assert same(logp, oracle_log_softmax(logits))
        assert same(p, oracle_softmax(logits))
        assert same(log_softmax(logits), logp)
        assert same(softmax(logits), p)

    def test_the_logits_are_left_alone(self):
        _, logits = logits_case(0, (3, 4), np.float64, False)
        before = logits.copy()
        softmax_pass(logits)
        assert same(logits, before)

    @pytest.mark.parametrize("bad", [np.zeros((2, 0)), np.array([[np.nan, 0.0]])])
    def test_it_checks_its_input_once_for_both_halves(self, bad):
        for f in (softmax_pass, softmax, log_softmax):
            with pytest.raises(ValueError, match="softmax"):
                f(bad)


# ---------------------------------------------------------------- losses

class TestLossesTakingAPass:
    @loss_shapes
    def test_im_loss_with_and_without_a_pass(self, seed, shape, stacked, dtype, spikes):
        w, m, c = shape
        _, logits = logits_case(seed, (w, m, c) if stacked else (m, c), dtype, spikes)
        want = oracle_im(logits)
        for got in (im_loss(logits), im_loss(logits, softmax_pass(logits))):
            assert same(got[0], want[0]) and same(got[1], want[1])

    @loss_shapes
    def test_entropy_and_diversity_with_and_without_logp(self, seed, shape, stacked, dtype,
                                                         spikes):
        w, m, c = shape
        _, logits = logits_case(seed, (w, m, c) if stacked else (m, c), dtype, spikes)
        logp = softmax_pass(logits).logp
        for term, oracle in ((entropy_loss, oracle_entropy),
                             (diversity_loss, oracle_diversity)):
            want = oracle(logits)
            for got in (term(logits), term(logits, logp), term(logits, logp, np.exp(logp))):
                assert same(got[0], want[0]) and same(got[1], want[1])

    @loss_shapes
    def test_cross_entropy_with_and_without_a_pass(self, seed, shape, stacked, dtype, spikes):
        w, m, c = shape
        rng, logits = logits_case(seed, (w, m, c) if stacked else (m, c), dtype, spikes)
        targets = rng.dirichlet(np.ones(c), size=logits.shape[:-1]).astype(dtype)
        want = oracle_cross_entropy(logits, targets)
        sm = softmax_pass(logits)
        before = [a.copy() for a in sm]
        for got in (cross_entropy(logits, targets), cross_entropy(logits, targets, sm)):
            assert same(got[0], want[0]) and same(got[1], want[1])
        # the caller's pass is read, not written
        assert all(same(a, b) for a, b in zip(sm, before))


# ---------------------------------------------------------------- head

head_cases = pytest.mark.parametrize("norm_kind, activation", [
    ("batchnorm", "relu"), ("batchnorm", "gelu"), ("layernorm", "relu"),
    ("layernorm", "gelu")])


class TestBatchStatistics:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(2, 70), st.integers(1, 9),
           st.sampled_from([-2, -1]), st.sampled_from(DTYPES))
    def test_mean_is_np_mean(self, seed, w, m, h, axis, dtype):
        a = make_rng(seed).normal(scale=5.0, size=(w, m, h)).astype(dtype)
        for arr in (a, a[0]):
            assert same(_mean(arr, axis), arr.mean(axis=axis, keepdims=True))
            centred = arr - _mean(arr, axis)
            assert same(_mean(np.square(centred), axis), arr.var(axis=axis, keepdims=True))


class TestForwardBackward:
    @head_cases
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("stack", [None, 3])
    def test_outputs_cache_state_and_gradients_are_the_oracles(self, norm_kind, activation,
                                                              dtype, mode, stack):
        for seed in range(4):
            rng, model = head_case(seed, norm_kind, activation, dtype)
            shape = (8, model.in_dim) if stack is None else (stack, 8, model.in_dim)
            x = rng.normal(size=shape).astype(dtype)
            twin = model.copy()
            logits, feats, cache = forward(model, x, mode)
            want = oracle_forward(twin, x, mode)
            assert same(logits, want[0]) and same(feats, want[1])
            for got, exp in zip((cache.xhat, cache.inv_std, cache.y), want[2:]):
                assert same(got, exp)
            if norm_kind == "batchnorm":
                assert same(model.norm.running_mean, twin.norm.running_mean)
                assert same(model.norm.running_var, twin.norm.running_var)

            dlogits = rng.normal(size=logits.shape).astype(dtype)
            kept = [a.copy() for a in (cache.x, cache.xhat, cache.inv_std, cache.y, cache.feats)]
            grads = backward(model, cache, dlogits)
            expected = oracle_backward(twin, mode, x, want[2], want[3], want[4], want[1],
                                       dlogits)
            assert list(grads) == list(expected)
            for k in grads:
                assert same(grads[k], expected[k]), k
            # backward writes into no array the cache holds
            assert all(same(a, b) for a, b in
                       zip((cache.x, cache.xhat, cache.inv_std, cache.y, cache.feats), kept))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_an_eval_pass_returns_and_caches_four_full_size_arrays(self, dtype):
        _, model = head_case(0, "batchnorm", "relu", dtype)
        x = make_rng(1).normal(size=(40, model.in_dim)).astype(dtype)
        logits, feats, cache = forward(model, x, "eval")
        arrays = (cache.xhat, cache.y, feats, logits)
        # four distinct buffers, none a view of another or of the input
        for i, a in enumerate(arrays):
            assert a.base is None and a.flags.owndata
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:] + (x,))
        assert cache.feats is feats


# ---------------------------------------------------------------- bank refresh

class TestBankRefresh:
    @pytest.fixture(scope="class")
    def setup(self):
        d = 8
        shift = ShiftSpec(np.full(d, 0.3), np.full(d, 1.1), np.zeros(d))
        src, tgt = gen_gaussian_pair(4, d, 24, 5.0, shift, make_rng(5))
        model = init_head(HeadConfig(d, 4, hidden_dim=12, norm_kind="batchnorm", seed=0))
        return tgt, train_supervised(model, src, "classifier_only", TrainConfig(seed=0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("cell", [None, DistConfig(4, 8)], ids=["1 worker", "4x8"])
    @pytest.mark.parametrize("adapt, cfg", [
        (nrc_adapt, NrcConfig(epochs=2, batch_size=32, seed=0)),
        (aad_adapt, AadConfig(epochs=2, batch_size=32, seed=0))], ids=["nrc", "aad"])
    def test_refreshed_scores_are_the_softmax_of_the_step_logits(self, setup, monkeypatch,
                                                                 dtype, cell, adapt, cfg):
        tgt, first = setup
        steps, refreshed = [], []
        step, refresh = sfuda.neighbors.sharded_step, MemoryBank.refresh

        def recording_step(*args, **kwargs):
            out = step(*args, **kwargs)
            steps.append(out[2][1].copy())
            return out

        def recording_refresh(bank, rows, feats, scores):
            refreshed.append(np.array(scores))
            refresh(bank, rows, feats, scores)

        monkeypatch.setattr(sfuda.neighbors, "sharded_step", recording_step)
        monkeypatch.setattr(MemoryBank, "refresh", recording_refresh)
        adapt(first, tgt.features.astype(dtype), cfg, dist=cell)
        assert len(steps) == len(refreshed) > 0
        for logits, scores in zip(steps, refreshed):
            assert same(scores, oracle_softmax(logits).reshape(scores.shape))
