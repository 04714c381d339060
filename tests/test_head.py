import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfuda.head
import sfuda.neighbors
from conftest import fd_param_grads, grad_gap, max_rel_err, per_batch_transfer, tiny_model
from oracles import adabn
from sfuda.core import derive_rng, make_rng
from sfuda.data import DomainDataset, LabelError, ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.head import (BOTTLENECK_PARAMS, CLASSIFIER_PARAMS, PARAM_NAMES,
                        HeadConfig, HeadModel, NormLayer,
                        StaleCacheError, TrainConfig, backward,
                        clip_global_norm, cross_entropy, evaluate, forward,
                        init_head, inverse_decay, sgd_step, smoothed_targets,
                        train_supervised)
from sfuda.neighbors import AadConfig, NrcConfig, aad_adapt, nrc_adapt
from sfuda.pcsr import PcsrConfig
from sfuda.shot import ShotConfig, shot_adapt


def passthrough_model(d, norm_kind="batchnorm"):
    """Identity bottleneck and classifier around a fresh norm layer."""
    bn = norm_kind == "batchnorm"
    eps = 1e-5 if bn else 1e-6
    norm = NormLayer(norm_kind, np.ones(d), np.zeros(d),
                     np.zeros(d) if bn else None, np.ones(d) if bn else None,
                     0.1, eps)
    return HeadModel(np.eye(d), np.zeros(d), norm, "relu", np.eye(d), np.zeros(d))


def separable_dataset():
    x = make_rng(12).normal(size=(120, 6))
    x[:60, 0] += 5.0
    x[60:, 0] -= 5.0
    labels = np.repeat(np.array([0, 1], dtype=np.int64), 60)
    return DomainDataset("separable", x, labels, 2)


class TestForward:
    def test_eval_batchnorm_is_eps_corrected_identity(self):
        model = passthrough_model(4)
        x = np.abs(make_rng(0).normal(size=(5, 4))) + 0.1
        _, feats, _ = forward(model, x, "eval")
        np.testing.assert_allclose(feats, x / np.sqrt(1.0 + model.norm.eps),
                                   atol=1e-9)

    def test_layernorm_constant_row_collapses_to_beta(self):
        model = passthrough_model(4, "layernorm")
        x = np.full((3, 4), 2.5)
        logits, feats, _ = forward(model, x, "eval")
        np.testing.assert_array_equal(feats, np.zeros((3, 4)))
        np.testing.assert_array_equal(logits, np.zeros((3, 4)))

    def test_eval_is_permutation_equivariant(self):
        model = tiny_model(seed=1, norm="batchnorm")
        x = make_rng(2).normal(size=(8, 5))
        perm = make_rng(3).permutation(8)
        a, _, _ = forward(model, x, "eval")
        b, _, _ = forward(model, x[perm], "eval")
        np.testing.assert_array_equal(b, a[perm])

    def test_train_batchnorm_needs_two_rows(self):
        model = tiny_model(norm="batchnorm")
        with pytest.raises(ValueError, match="at least 2"):
            forward(model, np.zeros((1, 5)), "train")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            forward(tiny_model(), np.zeros((2, 5)), "test")

    def test_wrong_width(self):
        with pytest.raises(ValueError, match="width 5"):
            forward(tiny_model(), np.zeros((2, 4)), "eval")

    def test_train_mode_updates_running_stats(self):
        model = tiny_model(norm="batchnorm")
        before = model.norm.running_mean.copy()
        forward(model, make_rng(4).normal(size=(6, 5)), "train")
        assert not np.array_equal(model.norm.running_mean, before)

    def test_eval_mode_leaves_running_stats(self):
        model = tiny_model(norm="batchnorm")
        before = model.norm.running_mean.copy()
        forward(model, make_rng(4).normal(size=(6, 5)), "eval")
        np.testing.assert_array_equal(model.norm.running_mean, before)


class TestBackward:
    @pytest.mark.parametrize("norm", ["batchnorm", "layernorm"])
    @pytest.mark.parametrize("act", ["relu", "gelu"])
    def test_gradients_match_finite_differences(self, norm, act):
        model = tiny_model(seed=5, d=5, h=6, c=3, norm=norm, act=act)
        x = make_rng(6).normal(size=(4, 5))
        targets = make_rng(7).dirichlet(np.ones(3), size=4)

        def loss():
            logits, _, _ = forward(model, x, "train")
            return cross_entropy(logits, targets)[0]

        logits, _, cache = forward(model, x, "train")
        _, dlogits = cross_entropy(logits, targets)
        analytic = backward(model, cache, dlogits)
        numeric = fd_param_grads(model, loss)
        assert grad_gap(analytic, numeric) < 1e-4

    def test_eval_mode_statistics_are_constants(self):
        # eval batchnorm treats running stats as constants in the chain rule
        model = tiny_model(seed=8, norm="batchnorm")
        model.norm.running_mean = make_rng(9).normal(size=6) * 0.3
        model.norm.running_var = 1.0 + np.abs(make_rng(10).normal(size=6))
        model.bump_version()
        x = make_rng(11).normal(size=(4, 5))
        targets = make_rng(12).dirichlet(np.ones(3), size=4)

        def loss():
            logits, _, _ = forward(model, x, "eval")
            return cross_entropy(logits, targets)[0]

        logits, _, cache = forward(model, x, "eval")
        _, dlogits = cross_entropy(logits, targets)
        analytic = backward(model, cache, dlogits)
        numeric = fd_param_grads(model, loss)
        assert grad_gap(analytic, numeric) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        model = tiny_model(seed=13)
        _, _, cache = forward(model, make_rng(14).normal(size=(4, 5)), "train")
        grads = backward(model, cache, np.zeros((4, 3)))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(grads[name], 0.0)

    @pytest.mark.parametrize("norm", ["batchnorm", "layernorm"])
    def test_duplicated_batch_doubles_gradients(self, norm):
        model = tiny_model(seed=15, norm=norm)
        x = make_rng(16).normal(size=(4, 5))
        dl = make_rng(17).normal(size=(4, 3))
        _, _, c1 = forward(model, x, "train")
        g1 = backward(model, c1, dl)
        _, _, c2 = forward(model, np.vstack([x, x]), "train")
        g2 = backward(model, c2, np.vstack([dl, dl]))
        for name in PARAM_NAMES:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name],
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("norm", ["batchnorm", "layernorm"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_a_frozen_classifier_gets_no_gradient(self, norm, stacked):
        """classifier=False drops the classifier's gradients and leaves the
        others' bits as they are."""
        model = tiny_model(seed=3, norm=norm)
        shape = (2, 4) if stacked else (8,)
        rng = make_rng(3)
        x, dl = rng.normal(size=shape + (5,)), rng.normal(size=shape + (3,))
        _, _, cache = forward(model, x, "train")
        full = backward(model, cache, dl)
        frozen = backward(model, cache, dl, classifier=False)
        assert tuple(frozen) == BOTTLENECK_PARAMS
        for k in BOTTLENECK_PARAMS:
            assert frozen[k].tobytes() == full[k].tobytes()

    def test_stale_cache_rejected(self):
        model = tiny_model(seed=18)
        x = make_rng(19).normal(size=(4, 5))
        _, _, cache = forward(model, x, "train")
        grads = backward(model, cache, np.ones((4, 3)) / 12.0)
        sgd_step(model, grads, {k: np.zeros_like(v) for k, v in model.params().items()},
                 0.1, 0.0, 0.0)
        with pytest.raises(StaleCacheError):
            backward(model, cache, np.ones((4, 3)))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def stacked_cases(draw):
    norm = draw(st.sampled_from(["batchnorm", "layernorm"]))
    act = draw(st.sampled_from(["relu", "gelu"]))
    w = draw(st.integers(1, 16))
    m = draw(st.integers(2 if norm == "batchnorm" else 1, 20))
    d, h, c = (draw(st.integers(1, 6)) for _ in range(3))
    rng = make_rng(draw(st.integers(0, 10 ** 6)))
    model = tiny_model(seed=int(rng.integers(1 << 30)), d=d, h=h, c=c, norm=norm, act=act)
    model.norm.gamma[:] = rng.normal(size=h)
    model.norm.beta[:] = rng.normal(size=h)
    if norm == "batchnorm":
        model.norm.running_mean = rng.normal(size=h)
        model.norm.running_var = rng.uniform(0.5, 2.0, size=h)
    return model, rng.normal(size=(w, m, d)), rng.normal(size=(w, m, c))


class TestStackedShards:
    """A (W, m, d) stack through forward/backward is W shard passes in one."""

    @given(stacked_cases(), st.sampled_from(["train", "eval"]))
    @settings(max_examples=200, deadline=None)
    def test_stack_equals_the_shard_loop_bit_for_bit(self, case, mode):
        self.check_stack(*case, mode, np.float64)

    @given(stacked_cases(), st.sampled_from(["train", "eval"]))
    @settings(max_examples=100, deadline=None)
    def test_float32_stack_equals_the_shard_loop_bit_for_bit(self, case, mode):
        self.check_stack(*case, mode, np.float32)

    @staticmethod
    def check_stack(model, x, dl, mode, dtype):
        x, dl = x.astype(dtype), dl.astype(dtype)
        loop, stack = model.copy(dtype), model.copy(dtype)
        outs, gsum = [], None
        for xw, dw in zip(x, dl):
            logits, feats, cache = forward(loop, xw, mode)
            g = backward(loop, cache, dw)
            outs.append((logits, feats))
            if gsum is None:
                gsum = g
            else:
                for k in gsum:
                    gsum[k] += g[k]
        logits, feats, cache = forward(stack, x, mode)
        grads = backward(stack, cache, dl)
        assert logits.dtype == dtype
        for w, (lw, fw) in enumerate(outs):
            same_bytes(logits[w], lw)
            same_bytes(feats[w], fw)
        assert list(grads) == list(gsum)
        for k in gsum:
            assert grads[k].dtype == dtype
            same_bytes(grads[k], gsum[k])
        if model.norm.kind == "batchnorm":
            same_bytes(stack.norm.running_mean, loop.norm.running_mean)
            same_bytes(stack.norm.running_var, loop.norm.running_var)

    def test_batchnorm_shards_need_two_rows(self):
        with pytest.raises(ValueError, match="at least 2"):
            forward(tiny_model(), np.zeros((3, 1, 5)), "train")

    def test_four_axes_rejected(self):
        with pytest.raises(ValueError, match="width"):
            forward(tiny_model(), np.zeros((2, 2, 2, 5)), "eval")


class TestComputeDtype:
    """A head is drawn in float64 and trained in its data's dtype."""

    def test_copy_casts_every_tensor(self):
        model = tiny_model(norm="batchnorm")
        cast = model.copy(np.float32)
        for k, v in model.params().items():
            assert v.dtype == np.float64
            assert cast.params()[k].dtype == np.float32
            np.testing.assert_array_equal(cast.params()[k], v.astype(np.float32))
        assert cast.norm.running_mean.dtype == cast.norm.running_var.dtype == np.float32
        assert model.copy().params()["gamma"].dtype == np.float64

    @pytest.mark.parametrize("scope", ["classifier_only", "full"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_follows_the_data(self, scope, dtype):
        src, _ = gen_gaussian_pair(3, 5, 20, 3.0, ShiftSpec.identity(5), make_rng(0))
        data = DomainDataset("s", src.features.astype(dtype), src.labels, 3)
        model = train_supervised(tiny_model(norm="batchnorm"), data, scope,
                                 TrainConfig(epochs=2, batch_size=8, seed=0))
        for v in model.params().values():
            assert v.dtype == dtype
        assert model.norm.running_mean.dtype == dtype
        assert smoothed_targets(data.labels, 3, 0.1, dtype).dtype == dtype


class TestLossPieces:
    def test_smoothed_targets_values(self):
        t = smoothed_targets(np.array([1]), 4, 0.1)
        np.testing.assert_allclose(t, [[0.025, 0.925, 0.025, 0.025]], atol=1e-12)

    def test_zero_smoothing_is_one_hot(self):
        t = smoothed_targets(np.array([0, 2]), 3, 0.0)
        np.testing.assert_array_equal(t, [[1, 0, 0], [0, 0, 1]])

    def test_cross_entropy_matches_hand_value(self):
        logits = np.array([[0.0, 0.0]])
        value, dlogits = cross_entropy(logits, np.array([[1.0, 0.0]]))
        assert abs(value - np.log(2.0)) < 1e-12
        np.testing.assert_allclose(dlogits, [[-0.5, 0.5]], atol=1e-12)

    def test_clip_rescales_to_max_norm(self):
        grads = {"a": np.array([3.0, 4.0])}
        returned = clip_global_norm(grads, 1.0)
        assert abs(returned - 1.0) < 1e-12
        np.testing.assert_allclose(grads["a"], [0.6, 0.8], atol=1e-12)

    def test_clip_below_threshold_is_noop(self):
        grads = {"a": np.array([0.3, 0.4])}
        returned = clip_global_norm(grads, 1.0)
        assert abs(returned - 0.5) < 1e-12
        np.testing.assert_array_equal(grads["a"], [0.3, 0.4])

    def test_lr_schedule(self):
        assert 0.5 * inverse_decay(0.0, 0.75) == 0.5
        rates = [0.5 * inverse_decay(s / 100, 0.75) for s in range(0, 101, 10)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.5 * 11.0 ** -0.75
        # power 0 is the constant schedule: every step at the base rate
        assert inverse_decay(0.73, 0.0) == 1.0


class TestTraining:
    def test_separable_data_trains_to_ceiling(self):
        data = separable_dataset()
        model = init_head(HeadConfig(6, 2, hidden_dim=16, seed=0))
        out = train_supervised(model, data, "full", TrainConfig(epochs=40, seed=0))
        assert evaluate(out, data.features, data.labels) >= 99.0

    def test_classifier_only_never_touches_bottleneck_bytes(self):
        src, _ = gen_gaussian_pair(3, 6, 40, 3.0, ShiftSpec.identity(6), make_rng(20))
        for norm in ("batchnorm", "layernorm"):
            for act in ("relu", "gelu"):
                model = init_head(HeadConfig(6, 3, hidden_dim=12, norm_kind=norm,
                                             activation=act, seed=0))
                out = train_supervised(model, src, "classifier_only",
                                       TrainConfig(epochs=5, seed=0))
                for name in BOTTLENECK_PARAMS:
                    assert out.params()[name].tobytes() == model.params()[name].tobytes()
                for stat in ("running_mean", "running_var"):
                    before, after = getattr(model.norm, stat), getattr(out.norm, stat)
                    assert (before is None and after is None) or \
                        after.tobytes() == before.tobytes()
                assert any(not np.array_equal(out.params()[n], model.params()[n])
                           for n in CLASSIFIER_PARAMS)

    def test_zero_learning_rate_is_a_bitwise_noop(self):
        src, _ = gen_gaussian_pair(3, 6, 40, 3.0, ShiftSpec.identity(6), make_rng(21))
        model = init_head(HeadConfig(6, 3, hidden_dim=12, norm_kind="batchnorm", seed=0))
        frozen = train_supervised(model, src, "classifier_only",
                                  TrainConfig(epochs=3, learning_rate=0.0, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(frozen.params()[name], model.params()[name])
        np.testing.assert_array_equal(frozen.norm.running_mean, model.norm.running_mean)

        # full scope: parameters still frozen, running stats drift by design
        full = train_supervised(model, src, "full",
                                TrainConfig(epochs=3, learning_rate=0.0, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(full.params()[name], model.params()[name])
        assert not np.array_equal(full.norm.running_mean, model.norm.running_mean)

    def test_training_is_deterministic(self):
        src, _ = gen_gaussian_pair(3, 6, 40, 3.0, ShiftSpec.identity(6), make_rng(22))
        model = init_head(HeadConfig(6, 3, hidden_dim=12, seed=0))
        cfg = TrainConfig(epochs=4, seed=5)
        a = train_supervised(model, src, "full", cfg)
        b = train_supervised(model, src, "full", cfg)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(a.params()[name], b.params()[name])

    def test_input_model_is_not_mutated(self):
        src, _ = gen_gaussian_pair(3, 6, 40, 3.0, ShiftSpec.identity(6), make_rng(23))
        model = init_head(HeadConfig(6, 3, hidden_dim=12, seed=0))
        keep = {k: v.copy() for k, v in model.params().items()}
        train_supervised(model, src, "full", TrainConfig(epochs=2, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(model.params()[name], keep[name])

    def test_clip_bounds_every_hooked_gradient(self):
        src, _ = gen_gaussian_pair(3, 6, 40, 3.0, ShiftSpec.identity(6), make_rng(24))
        model = init_head(HeadConfig(6, 3, hidden_dim=12, seed=0))
        seen = []

        def hook(step, loss, grads):
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            seen.append(total)

        train_supervised(model, src, "full",
                         TrainConfig(epochs=2, grad_clip=1.0, seed=0), step_hook=hook)
        assert seen
        assert all(t <= 1.0 + 1e-9 for t in seen)

    def test_huge_inputs_with_conflicting_labels_destabilize_plain_training(self):
        # duplicated samples carrying two different labels keep pushing large
        # wrong-label gradients; at lr 2 the unclipped full pass falls below
        # its own warm start while a clipped warm start plus full pass stays finite
        src, _ = gen_gaussian_pair(4, 8, 50, 1.5, ShiftSpec.identity(8), make_rng(2))
        feats = np.vstack([src.features, src.features]) * 1000.0
        labels = np.concatenate([src.labels, (src.labels + 1) % 4])
        data = DomainDataset("conflict", feats, labels, 4)
        model = init_head(HeadConfig(8, 4, hidden_dim=16, norm_kind="layernorm", seed=0))
        hot = TrainConfig(epochs=40, batch_size=16, learning_rate=2.0, seed=0)

        plain = train_supervised(model, data, "full", hot)
        warm = train_supervised(model, data, "classifier_only", hot)
        acc_plain = evaluate(plain, data.features, data.labels)
        acc_warm = evaluate(warm, data.features, data.labels)
        plain_broken = (not all(np.isfinite(v).all() for v in plain.params().values())
                        or acc_plain < acc_warm)
        assert plain_broken

        clipped = dataclasses.replace(hot, grad_clip=1.0)
        guarded = train_supervised(train_supervised(model, data, "classifier_only", clipped),
                                   data, "full", clipped)
        assert all(np.isfinite(v).all() for v in guarded.params().values())
        assert evaluate(guarded, data.features, data.labels) >= acc_plain

    def test_unlabeled_data_rejected(self):
        # data without labels is never built, so nothing trains on it
        with pytest.raises(LabelError, match="dataset 'u' needs integer labels"):
            DomainDataset("u", np.zeros((8, 3)), None, 2)

    def test_one_row_batchnorm_batches_raise_in_forward(self):
        # forward alone holds the two-row rule; a pooled shard stack passes it
        src, tgt = gen_gaussian_pair(3, 6, 10, 3.0, ShiftSpec.identity(6), make_rng(0))
        model = init_head(HeadConfig(6, 3, hidden_dim=16, norm_kind="batchnorm", seed=0))
        one = TrainConfig(epochs=1, batch_size=1)
        model = train_supervised(model, src, "classifier_only", one)  # eval-mode features
        with pytest.raises(ValueError, match="train-mode batchnorm needs a batch of at least 2"):
            train_supervised(model, src, "full", one)
        four = ShotConfig(epochs=1, batch_size=4)
        with pytest.raises(ValueError, match="train-mode batchnorm needs a batch of at least 2"):
            shot_adapt(model, tgt.features, four, dist=DistConfig(4, 1))
        shot_adapt(model, tgt.features, four, dist=DistConfig(4, 1, sync_batchnorm=True))

    def test_unknown_scope_rejected(self):
        src, _ = gen_gaussian_pair(3, 6, 10, 3.0, ShiftSpec.identity(6), make_rng(0))
        model = init_head(HeadConfig(6, 3, hidden_dim=4, seed=0))
        with pytest.raises(ValueError, match="scope"):
            train_supervised(model, src, "partial", TrainConfig(epochs=1))


class TestOneLoop:
    """First transfer and the adapters all step through head.run_epochs: one
    sgd_step per full batch, at the loop's one inverse decay of the share of
    steps taken (bit for bit), over the trainer's trainable names."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        real = sfuda.head.sgd_step

        def spy(model, grads, state, lr, momentum, weight_decay, lr_scale=None):
            calls.append((lr, sorted(grads), lr_scale))
            real(model, grads, state, lr, momentum, weight_decay, lr_scale)

        monkeypatch.setattr(sfuda.head, "sgd_step", spy)
        return calls

    @staticmethod
    def check(steps, total, lr, schedule, names, lr_scale=None):
        if schedule == "constant":
            rates = [lr] * total
        else:
            rates = [lr * inverse_decay(s / total, 0.75) for s in range(total)]
        assert len(steps) == total
        assert [step[0] for step in steps] == rates
        assert all(step[1] == sorted(names) for step in steps)
        assert all(step[2] == lr_scale for step in steps)

    @staticmethod
    def pair():
        # 75 rows per domain: batches of 16 leave a partial batch of 11
        shift = ShiftSpec(np.full(6, 0.3), np.ones(6), np.zeros(6))
        return gen_gaussian_pair(3, 6, 25, 3.0, shift, make_rng(50))

    @pytest.mark.parametrize("scope", ["classifier_only", "full"])
    @pytest.mark.parametrize("schedule", ["constant", "inverse-decay"])
    def test_train_supervised(self, steps, scope, schedule):
        src, _ = self.pair()
        cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.05,
                          lr_schedule=schedule, seed=0)
        train_supervised(init_head(HeadConfig(6, 3, hidden_dim=8, seed=0)), src, scope, cfg)
        if scope == "full":
            self.check(steps, 3 * 4, 0.05, schedule, PARAM_NAMES,
                       {k: 0.1 for k in BOTTLENECK_PARAMS})
        else:
            self.check(steps, 3 * 4, 0.05, schedule, CLASSIFIER_PARAMS)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_shot_adapt(self, steps, workers):
        _, tgt = self.pair()
        shot_adapt(init_head(HeadConfig(6, 3, hidden_dim=8, seed=0)), tgt.features,
                   ShotConfig(epochs=2, batch_size=16, learning_rate=0.05),
                   dist=DistConfig(workers, 16 // workers))
        self.check(steps, 2 * 4, 0.05, "inverse-decay", BOTTLENECK_PARAMS)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_nrc_adapt(self, steps, workers):
        _, tgt = self.pair()
        nrc_adapt(init_head(HeadConfig(6, 3, hidden_dim=8, seed=0)), tgt.features,
                  NrcConfig(epochs=2, batch_size=16, learning_rate=0.05),
                  dist=DistConfig(workers, 16 // workers))
        self.check(steps, 2 * 4, 0.05, "inverse-decay", PARAM_NAMES)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("beta", [0.75, 1.5])
    def test_aad_adapt(self, steps, monkeypatch, workers, beta):
        # 15 epochs of 4 batches: T = 60, where 10*(s/T) and 10*s/T round
        # apart at 11 steps (13 for beta 1.5)
        lambdas, real = [], sfuda.neighbors.aad_loss

        def spy(p, rows, bank, lambda_t, *args, **kwargs):
            lambdas.append(lambda_t)
            return real(p, rows, bank, lambda_t, *args, **kwargs)

        monkeypatch.setattr(sfuda.neighbors, "aad_loss", spy)
        _, tgt = self.pair()
        aad_adapt(init_head(HeadConfig(6, 3, hidden_dim=8, seed=0)), tgt.features,
                  AadConfig(epochs=15, batch_size=16, learning_rate=0.05, beta=beta),
                  dist=DistConfig(workers, 16 // workers))
        self.check(steps, 60, 0.05, "inverse-decay", PARAM_NAMES)
        assert lambdas == [inverse_decay(s / 60, beta) for s in range(60)]


class TestClassifierOnlyGradients:
    """A classifier-only step computes the classifier gradients alone, with
    the expressions backward uses, so they match it bit for bit."""

    @staticmethod
    def setup(norm, act, n):
        rng = make_rng(60)
        model = init_head(HeadConfig(20, 7, hidden_dim=32, norm_kind=norm,
                                     activation=act, seed=1))
        model.norm.gamma[:] = rng.uniform(0.5, 1.5, 32)
        model.norm.beta[:] = rng.normal(scale=0.3, size=32)
        if norm == "batchnorm":
            model.norm.running_mean = rng.normal(size=32)
            model.norm.running_var = rng.uniform(0.5, 2.0, 32)
        data = DomainDataset("d", rng.normal(size=(n, 20)),
                             rng.integers(0, 7, n), 7)
        return model, data

    @pytest.mark.parametrize("norm", ["batchnorm", "layernorm"])
    @pytest.mark.parametrize("act", ["relu", "gelu"])
    @pytest.mark.parametrize("b", [1, 2, 64])
    def test_step_grads_equal_backward_bitwise(self, norm, act, b):
        model, data = self.setup(norm, act, 64)
        cfg = TrainConfig(epochs=1, batch_size=b, seed=9)
        seen = []
        train_supervised(model, data, "classifier_only", cfg,
                         step_hook=lambda _s, _l, grads: seen.append(grads))
        # the first step reads the untrained model: replay it through backward
        rows = derive_rng(cfg.seed, "train-shuffle").permutation(64)[:b]
        if b == 1:
            # numpy sends a 1-row product to gemv, which rounds differently
            # from the rows of the full-set forward that the step reads: the
            # replay reads those rows too
            _, _, full = forward(model, data.features, "eval")
            cache = dataclasses.replace(full, **{
                k: getattr(full, k)[rows] for k in ("x", "xhat", "inv_std", "y", "feats")
                if getattr(full, k).ndim == 2})
            logits = cache.feats @ model.classifier_weight + model.classifier_bias
        else:
            logits, _, cache = forward(model, data.features[rows], "eval")
        targets = smoothed_targets(data.labels, 7, cfg.label_smoothing)[rows]
        want = backward(model, cache, cross_entropy(logits, targets)[1])
        assert len(seen) == 64 // b and sorted(seen[0]) == sorted(CLASSIFIER_PARAMS)
        for name in CLASSIFIER_PARAMS:
            assert seen[0][name].tobytes() == want[name].tobytes()



class TestFrozenFeatureTransfer:
    """A classifier-only transfer reads its batches from one full-set eval
    forward; a forward per batch gives the same parameters."""

    @staticmethod
    def transfer_pair(d, h, norm, act, b):
        rng = make_rng(70 + d + h)
        model = init_head(HeadConfig(d, 5, hidden_dim=h, norm_kind=norm,
                                     activation=act, seed=3))
        model.norm.gamma[:] = rng.uniform(0.5, 1.5, h)
        model.norm.beta[:] = rng.normal(scale=0.3, size=h)
        if norm == "batchnorm":
            model.norm.running_mean = rng.normal(size=h)
            model.norm.running_var = rng.uniform(0.5, 2.0, h)
        data = DomainDataset("d", rng.normal(size=(128, d)), rng.integers(0, 5, 128), 5)
        cfg = TrainConfig(epochs=2, batch_size=b, seed=4)
        return (train_supervised(model, data, "classifier_only", cfg),
                per_batch_transfer(model, data, cfg))

    @pytest.mark.parametrize("d,h", [(256, 256), (12, 32), (10, 32), (6, 12)])
    @pytest.mark.parametrize("b", [2, 64])
    @pytest.mark.parametrize("norm", ["batchnorm", "layernorm"])
    @pytest.mark.parametrize("act", ["relu", "gelu"])
    def test_equals_per_batch_forwards_bitwise(self, d, h, b, norm, act):
        got, want = self.transfer_pair(d, h, norm, act, b)
        for name, value in want.params().items():
            same_bytes(got.params()[name], value)
        if norm == "batchnorm":
            same_bytes(got.norm.running_mean, want.norm.running_mean)
            same_bytes(got.norm.running_var, want.norm.running_var)

    @pytest.mark.parametrize("d,h", [(256, 256), (12, 32), (10, 32), (6, 12)])
    @pytest.mark.parametrize("norm", ["batchnorm", "layernorm"])
    @pytest.mark.parametrize("act", ["relu", "gelu"])
    def test_one_row_batches_agree_to_rounding(self, d, h, norm, act):
        # numpy sends a 1-row product to gemv, which rounds differently from
        # the same row of a many-row product, so a 1-row forward and the row
        # of the full-set forward may differ in the last bits. At the default
        # step size the loop is stable and the gap stays at rounding size; a
        # step that makes it oscillate (0.05 at h=256) amplifies it to 1e-8
        got, want = self.transfer_pair(d, h, norm, act, 1)
        for name, value in want.params().items():
            np.testing.assert_allclose(got.params()[name], value, rtol=0, atol=1e-12)


class TestAdabn:
    def test_replaces_stats_with_target_moments(self):
        model = tiny_model(seed=27, norm="batchnorm")
        x = make_rng(28).normal(size=(50, 5)) * 2.0 + 1.0
        out = adabn(model, x)
        z = x @ model.bottleneck_weight + model.bottleneck_bias
        np.testing.assert_array_equal(out.norm.running_mean, z.mean(axis=0))
        np.testing.assert_array_equal(out.norm.running_var, z.var(axis=0, ddof=1))

    def test_returns_copy_and_leaves_input_alone(self):
        model = tiny_model(seed=29, norm="batchnorm")
        before = model.norm.running_mean.copy()
        out = adabn(model, make_rng(30).normal(size=(20, 5)))
        assert out is not model
        np.testing.assert_array_equal(model.norm.running_mean, before)

    def test_normalization_becomes_affine_identity_on_target(self):
        # with swapped stats the normalized activations have zero mean and a
        # variance of v/(v+eps) per unit, an exact algebraic identity
        model = tiny_model(seed=31, norm="batchnorm")
        x = make_rng(32).normal(size=(40, 5)) * 3.0 - 2.0
        out = adabn(model, x)
        z = x @ out.bottleneck_weight + out.bottleneck_bias
        v = z.var(axis=0, ddof=1)
        xhat = (z - out.norm.running_mean) / np.sqrt(out.norm.running_var + out.norm.eps)
        np.testing.assert_allclose(xhat.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(xhat.var(axis=0, ddof=1), v / (v + out.norm.eps),
                                   atol=1e-9)

    def test_running_average_tracks_data_statistics(self):
        # a slow EMA over many steps should settle near the direct moments
        src, _ = gen_gaussian_pair(4, 8, 256, 3.0, ShiftSpec.identity(8), make_rng(1))
        model = init_head(HeadConfig(8, 4, hidden_dim=24, norm_kind="batchnorm", seed=1))
        model.norm.momentum = 0.05
        trained = train_supervised(model, src, "full",
                                   TrainConfig(epochs=30, batch_size=128, seed=3))
        direct = adabn(trained, src.features)
        mean_gap = np.abs(trained.norm.running_mean - direct.norm.running_mean).max()
        var_gap = (np.abs(trained.norm.running_var - direct.norm.running_var)
                   / direct.norm.running_var).max()
        assert mean_gap < 1e-2
        assert var_gap < 1e-2

    def test_layernorm_rejected(self):
        with pytest.raises(ValueError, match="batchnorm"):
            adabn(tiny_model(norm="layernorm"), np.zeros((4, 5)))

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            adabn(tiny_model(norm="batchnorm"), np.zeros((1, 5)))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            adabn(tiny_model(norm="batchnorm"), np.zeros((4, 7)))


class TestConfigValidation:
    def test_eps_defaults_depend_on_norm_kind(self):
        for kind, eps in (("batchnorm", 1e-5), ("layernorm", 1e-6)):
            norm = init_head(HeadConfig(4, 2, norm_kind=kind)).norm
            assert (norm.eps, norm.momentum) == (eps, 0.1)

    def test_bad_head_config(self):
        with pytest.raises(ValueError):
            HeadConfig(4, 2, norm_kind="groupnorm")
        with pytest.raises(ValueError):
            HeadConfig(4, 2, activation="tanh")
        with pytest.raises(ValueError):
            HeadConfig(0, 2)

    def test_bad_train_config(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ValueError):
            TrainConfig(lr_schedule="cosine")
        with pytest.raises(ValueError):
            TrainConfig(grad_clip=0.0)
        with pytest.raises(ValueError):
            TrainConfig(label_smoothing=1.0)

    @pytest.mark.parametrize("cls", [TrainConfig, ShotConfig, NrcConfig, AadConfig,
                                     PcsrConfig])
    @pytest.mark.parametrize("bad, error", [
        ({"momentum": 1.0}, ValueError), ({"learning_rate": -1.0}, ValueError),
        ({"weight_decay": -1.0}, ValueError), ({"epochs": 0}, ValueError),
        ({"epochs": "x"}, TypeError), ({"batch_size": True}, TypeError),
        ({"epochs": 2.5}, TypeError), ({"learning_rate": "x"}, TypeError),
        ({"seed": None}, TypeError),
    ])
    def test_every_config_checks_the_loop_settings(self, cls, bad, error):
        with pytest.raises(error):
            cls(**bad)

    def test_value_types_are_checked(self):
        assert TrainConfig(learning_rate=1, grad_clip=None).learning_rate == 1
        with pytest.raises(TypeError, match="grad_clip must be float, not 'x'"):
            TrainConfig(grad_clip="x")
        with pytest.raises(TypeError, match="lr_schedule must be str, not 1"):
            TrainConfig(lr_schedule=1)
        with pytest.raises(ValueError, match="learning_rate must be finite, not nan"):
            TrainConfig(learning_rate=float("nan"))
        with pytest.raises(TypeError, match="K must be int, not 3.0"):
            NrcConfig(K=3.0)
        with pytest.raises(TypeError, match="hidden_dim must be int, not 2.5"):
            HeadConfig(4, 2, hidden_dim=2.5)
        with pytest.raises(TypeError, match="in_dim must be int, not True"):
            HeadConfig(True, 2)

    def test_init_is_seeded(self):
        a = init_head(HeadConfig(6, 3, hidden_dim=8, seed=4))
        b = init_head(HeadConfig(6, 3, hidden_dim=8, seed=4))
        c = init_head(HeadConfig(6, 3, hidden_dim=8, seed=5))
        np.testing.assert_array_equal(a.bottleneck_weight, b.bottleneck_weight)
        assert not np.array_equal(a.bottleneck_weight, c.bottleneck_weight)


class TestEvaluate:
    def test_returns_percent(self):
        model = passthrough_model(2)
        x = np.array([[5.0, 1.0], [1.0, 5.0], [5.0, 2.0], [2.0, 5.0]])
        assert evaluate(model, x, np.array([0, 1, 1, 0])) == 50.0
        assert evaluate(model, x, np.array([0, 1, 0, 1])) == 100.0
