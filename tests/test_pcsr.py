import numpy as np
import pytest

import sfuda.pcsr
from sfuda.core import derive_rng, derive_seed, l2_normalize_rows, make_rng
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.head import (CLASSIFIER_PARAMS, PARAM_NAMES, HeadConfig,
                        TrainConfig, evaluate, init_head, train_supervised)
from sfuda.pcsr import (PcsrConfig, _polycentric_refine, mixup_batch,
                        pcsr_adapt, polycentric_pseudo_labels)
from sfuda.sca import class_prototypes
from sfuda.shot import ShotConfig, shot_adapt, shot_pseudo_labels


def circle(degs):
    r = np.deg2rad(np.asarray(degs, dtype=np.float64))
    return np.stack([np.cos(r), np.sin(r)], axis=1)


def split_cluster_instance():
    """Class 0 owns two arcs, one far from its centroid; class 1 sits between
    the arcs, closer to the stray one than the single class-0 center is."""
    feats = circle([-5.0, -3.0, -1.0, 1.0, 3.0, 5.0,   # class 0, main arc
                    88.0, 90.0, 92.0,                   # class 0, stray arc
                    38.0, 40.0, 42.0])                  # class 1
    labels = np.array([0] * 9 + [1] * 3, dtype=np.int64)
    protos = class_prototypes(feats, labels, 2)
    return feats, labels, protos


class TestMixup:
    def test_lambda_one_returns_inputs(self):
        x = make_rng(0).normal(size=(5, 3))
        t = make_rng(1).dirichlet(np.ones(4), size=5)
        xm, tm, lam = mixup_batch(x, t, 0.3, make_rng(2), lam=1.0)
        assert lam == 1.0
        np.testing.assert_array_equal(xm, x)
        np.testing.assert_array_equal(tm, t)

    def test_lambda_half_averages_with_partner(self):
        x = make_rng(3).normal(size=(6, 3))
        t = np.eye(6)
        perm = derive_rng(0, "probe").permutation(6)
        xm, tm, _ = mixup_batch(x, t, 0.3, derive_rng(0, "probe"), lam=0.5)
        np.testing.assert_array_equal(xm, 0.5 * x + 0.5 * x[perm])
        np.testing.assert_array_equal(tm, 0.5 * t + 0.5 * t[perm])

    def test_targets_stay_on_the_simplex(self):
        x = make_rng(4).normal(size=(8, 3))
        t = np.zeros((8, 4))
        t[np.arange(8), make_rng(5).integers(0, 4, 8)] = 1.0
        xm, tm, lam = mixup_batch(x, t, 0.3, make_rng(6))
        assert 0.0 <= lam <= 1.0
        np.testing.assert_allclose(tm.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(tm >= -1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            mixup_batch(np.ones((1, 3)), np.ones((1, 2)), 0.3, make_rng(0))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pair up"):
            mixup_batch(np.ones((3, 2)), np.ones((2, 2)), 0.3, make_rng(0))

    def test_seeded_draw_is_reproducible(self):
        x = make_rng(7).normal(size=(5, 3))
        t = np.eye(5)
        a = mixup_batch(x, t, 0.3, make_rng(8))
        b = mixup_batch(x, t, 0.3, make_rng(8))
        assert a[2] == b[2]
        np.testing.assert_array_equal(a[0], b[0])


class TestPolycentricRefine:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_second_center_recovers_the_stray_arc(self, seed):
        # one center per class mislabels the stray arc toward class 1; two
        # sub-centers give the arc its own anchor and win it back
        feats, labels, protos = split_cluster_instance()
        single = _polycentric_refine(feats, labels, protos, 1, make_rng(seed))
        np.testing.assert_array_equal(single[6:9], [1, 1, 1])
        double = _polycentric_refine(feats, labels, protos, 2, make_rng(seed))
        np.testing.assert_array_equal(double[6:9], [0, 0, 0])
        np.testing.assert_array_equal(double, labels)

    def test_class_without_members_keeps_base_center(self):
        feats, _, protos = split_cluster_instance()
        labels = np.zeros(12, dtype=np.int64)  # class 1 empty
        out = _polycentric_refine(feats, labels, protos, 2, make_rng(0))
        assert set(np.unique(out)) <= {0, 1}

    def test_small_classes_cap_their_center_count(self):
        feats = l2_normalize_rows(make_rng(9).normal(size=(5, 3)) + 0.3)
        labels = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        protos = class_prototypes(feats, labels, 2)
        out = _polycentric_refine(feats, labels, protos, 3, make_rng(1))
        assert out.shape == (5,)
        assert set(np.unique(out)) <= {0, 1}


class TestPolycentricLabels:
    def make_rig(self):
        d = 8
        shift = ShiftSpec(np.full(d, 0.4), np.ones(d), np.zeros(d))
        src, tgt = gen_gaussian_pair(4, d, 40, 4.0, shift, make_rng(31))
        model = init_head(HeadConfig(d, 4, hidden_dim=16,
                                     seed=derive_seed(0, "head-init")))
        first = train_supervised(model, src, "classifier_only",
                                 TrainConfig(seed=derive_seed(0, "first-transfer")))
        return src, tgt, first

    def test_single_center_matches_single_prototype_labels(self):
        _, tgt, first = self.make_rig()
        poly = polycentric_pseudo_labels(first, tgt.features, 1, make_rng(0))[0]
        single, _ = shot_pseudo_labels(first, tgt.features)
        np.testing.assert_array_equal(poly, single)

    def test_identical_samples_get_one_label(self):
        _, tgt, first = self.make_rig()
        x = np.tile(tgt.features[3], (20, 1))
        labels = polycentric_pseudo_labels(first, x, 2, make_rng(0))[0]
        assert np.unique(labels).size == 1

    def test_deterministic(self):
        _, tgt, first = self.make_rig()
        a = polycentric_pseudo_labels(first, tgt.features, 2, make_rng(4))[0]
        b = polycentric_pseudo_labels(first, tgt.features, 2, make_rng(4))[0]
        np.testing.assert_array_equal(a, b)

    def test_pcsr_adapt_relabels_through_it_once_per_epoch(self, monkeypatch):
        _, tgt, first = self.make_rig()
        calls = []
        real = sfuda.pcsr.polycentric_pseudo_labels

        def spy(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(sfuda.pcsr, "polycentric_pseudo_labels", spy)
        pcsr_adapt(first, tgt.features, PcsrConfig(M=3, epochs=2, batch_size=32))
        assert calls == [3, 3]

    def test_zero_centers_rejected(self):
        _, tgt, first = self.make_rig()
        with pytest.raises(ValueError, match="m_centers"):
            polycentric_pseudo_labels(first, tgt.features, 0, make_rng(0))


class TestPcsrAdapt:
    def make_rig(self):
        d = 8
        shift = ShiftSpec(np.full(d, 0.4), np.ones(d), np.zeros(d))
        src, tgt = gen_gaussian_pair(4, d, 40, 4.0, shift, make_rng(31))
        model = init_head(HeadConfig(d, 4, hidden_dim=16,
                                     seed=derive_seed(0, "head-init")))
        first = train_supervised(model, src, "classifier_only",
                                 TrainConfig(seed=derive_seed(0, "first-transfer")))
        return src, tgt, first

    def test_reduces_to_single_center_adapter_bitwise(self):
        _, tgt, first = self.make_rig()
        seed = derive_seed(0, "adapt")
        shot_out = shot_adapt(first, tgt.features,
                              ShotConfig(epochs=4, batch_size=32,
                                         learning_rate=0.05, seed=seed))
        pcsr_out = pcsr_adapt(first, tgt.features,
                              PcsrConfig(M=1, mixup_weight=0.0, epochs=4,
                                         batch_size=32, learning_rate=0.05,
                                         seed=seed))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(pcsr_out.params()[name],
                                          shot_out.params()[name])

    def test_classifier_bytes_never_move(self):
        _, tgt, first = self.make_rig()
        out = pcsr_adapt(first, tgt.features, PcsrConfig(epochs=2, seed=0))
        for name in CLASSIFIER_PARAMS:
            np.testing.assert_array_equal(out.params()[name], first.params()[name])

    def test_zero_learning_rate_keeps_parameters(self):
        _, tgt, first = self.make_rig()
        out = pcsr_adapt(first, tgt.features,
                         PcsrConfig(epochs=2, learning_rate=0.0, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(out.params()[name], first.params()[name])

    def test_deterministic(self):
        _, tgt, first = self.make_rig()
        cfg = PcsrConfig(epochs=2, seed=6)
        a = pcsr_adapt(first, tgt.features, cfg)
        b = pcsr_adapt(first, tgt.features, cfg)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(a.params()[name], b.params()[name])

    def test_keeps_pace_with_the_single_center_adapter(self):
        d = 10
        shift = ShiftSpec(np.full(d, 0.4), np.ones(d), np.zeros(d),
                          rotation_angle=0.3)
        src, tgt = gen_gaussian_pair(5, d, 60, 3.5, shift, make_rng(17))
        model = init_head(HeadConfig(d, 5, hidden_dim=32, seed=0))
        first = train_supervised(model, src, "classifier_only", TrainConfig(seed=0))
        shot_acc = evaluate(shot_adapt(first, tgt.features, ShotConfig(seed=0)),
                            tgt.features, tgt.labels)
        pcsr_acc = evaluate(pcsr_adapt(first, tgt.features, PcsrConfig(seed=0)),
                            tgt.features, tgt.labels)
        assert pcsr_acc >= shot_acc - 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PcsrConfig(M=0)
        with pytest.raises(ValueError):
            PcsrConfig(mixup_alpha=0.0)
        with pytest.raises(ValueError):
            PcsrConfig(mixup_weight=-0.5)
