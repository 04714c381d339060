import dataclasses
import math

import numpy as np
import pytest

from conftest import max_rel_err
from sfuda.core import l2_normalize_rows, log_softmax, make_rng
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.head import (CLASSIFIER_PARAMS, PARAM_NAMES, HeadConfig,
                        TrainConfig, evaluate, forward, init_head,
                        train_supervised)
from sfuda.sca import Prototypes
from sfuda.shot import (ShotConfig, diversity_loss, entropy_loss, im_loss,
                        shot_adapt, shot_pseudo_labels, weighted_prototypes)


def fd_logit_grads(loss_fn, logits, step=1e-6):
    g = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            orig = logits[i, j]
            logits[i, j] = orig + step
            hi = loss_fn(logits)[0]
            logits[i, j] = orig - step
            lo = loss_fn(logits)[0]
            logits[i, j] = orig
            g[i, j] = (hi - lo) / (2.0 * step)
    return g


class TestWeightedPrototypes:
    def test_hand_worked_two_by_two(self):
        probs = np.array([[0.8, 0.2], [0.4, 0.6]])
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = weighted_prototypes(probs, feats)
        np.testing.assert_allclose(out, [[0.8 / 1.2, 0.4 / 1.2],
                                         [0.25, 0.75]], atol=1e-12)

    def test_one_hot_probs_give_class_means(self):
        rng = make_rng(0)
        feats = rng.normal(size=(12, 4))
        labels = rng.integers(0, 3, 12)
        labels[:3] = [0, 1, 2]
        probs = np.zeros((12, 3))
        probs[np.arange(12), labels] = 1.0
        out = weighted_prototypes(probs, feats)
        for c in range(3):
            np.testing.assert_allclose(out[c], feats[labels == c].mean(axis=0),
                                       atol=1e-12)

    def test_uniform_probs_give_global_mean(self):
        feats = make_rng(1).normal(size=(10, 4))
        probs = np.full((10, 3), 1.0 / 3.0)
        out = weighted_prototypes(probs, feats)
        for c in range(3):
            np.testing.assert_allclose(out[c], feats.mean(axis=0), atol=1e-12)

    def test_zero_mass_class_rejected(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="class 1 has zero soft mass"):
            weighted_prototypes(probs, np.ones((2, 3)))

    def test_positively_homogeneous_in_features(self):
        rng = make_rng(2)
        probs = rng.dirichlet(np.ones(3), size=8)
        feats = rng.normal(size=(8, 5))
        base = weighted_prototypes(probs, feats)
        np.testing.assert_array_equal(weighted_prototypes(probs, feats * 4.0),
                                      4.0 * base)


class TestInformationMaximization:
    def test_uniform_rows_have_zero_objective(self):
        logits = np.zeros((6, 4))
        value, _ = im_loss(logits)
        assert abs(value) < 1e-12

    def test_balanced_confident_rows_reach_the_floor(self):
        # huge-margin logits spread evenly over classes: entropy vanishes and
        # the marginal is uniform, so the objective sits at -ln C
        c = 3
        logits = np.kron(np.ones((4, 1)), np.eye(c) * 1000.0)
        value, _ = im_loss(logits)
        assert abs(value + math.log(c)) < 1e-9

    def test_entropy_term_matches_per_row_average(self):
        logits = make_rng(3).normal(size=(5, 4))
        value, _ = entropy_loss(logits)
        logp = log_softmax(logits)
        expect = float((-(np.exp(logp) * logp).sum(axis=1)).mean())
        assert abs(value - expect) < 1e-12

    def test_diversity_term_matches_marginal_entropy(self):
        logits = make_rng(4).normal(size=(5, 4))
        value, _ = diversity_loss(logits)
        pbar = np.exp(log_softmax(logits)).mean(axis=0)
        expect = float((pbar * np.log(pbar)).sum())
        assert abs(value - expect) < 1e-12

    @pytest.mark.parametrize("loss_fn", [entropy_loss, diversity_loss, im_loss])
    def test_logit_gradients_match_finite_differences(self, loss_fn):
        logits = make_rng(5).normal(size=(4, 3))
        _, grad = loss_fn(logits)
        numeric = fd_logit_grads(loss_fn, logits)
        assert max_rel_err(grad, numeric) < 1e-4

    def test_objective_never_dips_below_negative_log_c(self):
        rng = make_rng(6)
        for _ in range(200):
            b = int(rng.integers(2, 10))
            c = int(rng.integers(2, 6))
            logits = rng.normal(size=(b, c)) * rng.uniform(0.1, 20.0)
            value, _ = im_loss(logits)
            assert value >= -math.log(c) - 1e-9


class TestPseudoLabels:
    def make_pair(self):
        return gen_gaussian_pair(3, 6, 30, 5.0, ShiftSpec.identity(6), make_rng(9))

    def make_model(self, seed=0):
        return init_head(HeadConfig(6, 3, hidden_dim=12, seed=seed))

    def test_zero_classifier_collapses_to_tied_global_mean(self):
        # uniform predictions put the global centroid at every class slot;
        # the cosine tie rule then sends every sample to class 0
        _, tgt = self.make_pair()
        model = self.make_model()
        model.classifier_weight[...] = 0.0
        model.classifier_bias[...] = 0.0
        model.bump_version()
        labels, protos = shot_pseudo_labels(model, tgt.features, kmeans_rounds=0)
        assert np.all(labels == 0)
        np.testing.assert_array_equal(protos.centers[0], protos.centers[1])
        np.testing.assert_array_equal(protos.centers[0], protos.centers[2])

    def test_no_refinement_matches_direct_recomputation(self):
        _, tgt = self.make_pair()
        model = self.make_model()
        labels, protos = shot_pseudo_labels(model, tgt.features, kmeans_rounds=0)
        logits, feats, _ = forward(model, tgt.features, "eval")
        probs = np.exp(log_softmax(logits))
        centers = l2_normalize_rows(weighted_prototypes(probs, feats))
        np.testing.assert_allclose(protos.centers, centers, rtol=1e-12, atol=1e-15)
        expect = (l2_normalize_rows(feats) @ protos.centers.T).argmax(axis=1)
        np.testing.assert_array_equal(labels, expect)

    def test_suppressed_class_falls_back_to_global_mean(self):
        _, tgt = self.make_pair()
        model = self.make_model()
        model.classifier_bias[2] = -2000.0  # class 2 soft mass underflows to 0
        model.bump_version()
        _, protos = shot_pseudo_labels(model, tgt.features, kmeans_rounds=0)
        _, feats, _ = forward(model, tgt.features, "eval")
        gm = feats.mean(axis=0)
        np.testing.assert_array_equal(protos.centers[2], gm / np.linalg.norm(gm))

    def test_suppressed_class_prefers_previous_prototype(self):
        _, tgt = self.make_pair()
        model = self.make_model()
        model.classifier_bias[2] = -2000.0
        model.bump_version()
        marker = np.zeros((3, 12))
        marker[:, 0] = 1.0
        marker[2] = 0.0
        marker[2, 1] = 1.0
        prev = Prototypes(marker)
        _, protos = shot_pseudo_labels(model, tgt.features, kmeans_rounds=0,
                                       prev_prototypes=prev)
        np.testing.assert_array_equal(protos.centers[2], marker[2])

    def test_a_zero_prototype_names_its_class(self):
        # a zero norm scale zeroes every feature, so every prototype is zero
        _, tgt = self.make_pair()
        model = self.make_model()
        model.norm.gamma[...] = 0.0
        model.norm.beta[...] = 0.0
        model.bump_version()
        with pytest.raises(ValueError, match="^cannot normalize zero row 0$"):
            shot_pseudo_labels(model, tgt.features, kmeans_rounds=0)

    def test_labels_cover_reasonable_accuracy_on_easy_data(self):
        _, tgt = self.make_pair()
        model = self.make_model()
        trained = train_supervised(model, tgt, "classifier_only",
                                   TrainConfig(epochs=50, batch_size=32,
                                               learning_rate=0.05, seed=0))
        assert evaluate(trained, tgt.features, tgt.labels) > 95.0
        labels, _ = shot_pseudo_labels(trained, tgt.features)
        assert (labels == tgt.labels).mean() > 0.9

    def test_deterministic(self):
        _, tgt = self.make_pair()
        model = self.make_model()
        a = shot_pseudo_labels(model, tgt.features)
        b = shot_pseudo_labels(model, tgt.features)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1].centers, b[1].centers)


class TestShotAdapt:
    def make_setup(self):
        src, tgt = gen_gaussian_pair(3, 6, 40, 3.0, ShiftSpec.identity(6),
                                     make_rng(31))
        model = init_head(HeadConfig(6, 3, hidden_dim=12, seed=0))
        first = train_supervised(model, src, "classifier_only",
                                 TrainConfig(epochs=10, seed=0))
        return src, tgt, first

    def test_classifier_bytes_never_move(self):
        _, tgt, first = self.make_setup()
        out = shot_adapt(first, tgt.features, ShotConfig(epochs=3, seed=0))
        for name in CLASSIFIER_PARAMS:
            np.testing.assert_array_equal(out.params()[name], first.params()[name])
        assert any(not np.array_equal(out.params()[n], first.params()[n])
                   for n in ("bottleneck_weight", "gamma"))

    def test_zero_learning_rate_is_a_bitwise_noop(self):
        _, tgt, first = self.make_setup()
        out = shot_adapt(first, tgt.features,
                         ShotConfig(epochs=2, learning_rate=0.0, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(out.params()[name], first.params()[name])

    def test_input_model_untouched(self):
        _, tgt, first = self.make_setup()
        keep = {k: v.copy() for k, v in first.params().items()}
        shot_adapt(first, tgt.features, ShotConfig(epochs=2, seed=0))
        for k, v in first.params().items():
            np.testing.assert_array_equal(v, keep[k])

    def test_deterministic(self):
        _, tgt, first = self.make_setup()
        cfg = ShotConfig(epochs=3, seed=7)
        a = shot_adapt(first, tgt.features, cfg)
        b = shot_adapt(first, tgt.features, cfg)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(a.params()[name], b.params()[name])

    def test_adaptation_improves_shifted_target(self):
        d = 10
        shift = ShiftSpec(np.full(d, 0.5), np.full(d, 1.2), np.zeros(d),
                          rotation_angle=0.35)
        src, tgt = gen_gaussian_pair(5, d, 60, 3.0, shift, make_rng(100))
        model = init_head(HeadConfig(d, 5, hidden_dim=32, seed=0))
        first = train_supervised(model, src, "classifier_only",
                                 TrainConfig(seed=0))
        before = evaluate(first, tgt.features, tgt.labels)
        adapted = shot_adapt(first, tgt.features,
                             ShotConfig(epochs=25, batch_size=32,
                                        learning_rate=0.05, seed=0))
        after = evaluate(adapted, tgt.features, tgt.labels)
        assert after > before

    def test_full_finetune_start_also_improves(self):
        d = 10
        shift = ShiftSpec(np.zeros(d), np.full(d, 2.0), np.zeros(d),
                          rotation_angle=0.2)
        src, tgt = gen_gaussian_pair(5, d, 60, 3.0, shift, make_rng(21))
        model = init_head(HeadConfig(d, 5, hidden_dim=32, seed=0))
        ft = train_supervised(model, src, "full", TrainConfig(seed=0))
        before = evaluate(ft, tgt.features, tgt.labels)
        adapted = shot_adapt(ft, tgt.features,
                             ShotConfig(epochs=25, batch_size=32,
                                        learning_rate=0.05, seed=0))
        after = evaluate(adapted, tgt.features, tgt.labels)
        assert after >= before + 3.0

    def test_bad_config(self):
        with pytest.raises(ValueError):
            ShotConfig(epochs=0)
        with pytest.raises(ValueError):
            ShotConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            ShotConfig(kmeans_rounds=-1)
