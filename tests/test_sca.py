import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfuda.sca
from conftest import full_recentering_kmeans
from sfuda.core import l2_normalize_rows, make_rng
from sfuda.data import DomainDataset, LabelError, ShiftSpec, gen_gaussian_pair
from sfuda.head import HeadConfig, TrainConfig, evaluate, init_head, train_supervised
from sfuda.sca import Prototypes, class_prototypes, sca_adapt, spherical_kmeans


def basis_cloud():
    """Six exactly unit-norm rows: duplicated standard basis vectors."""
    return np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                     [0.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])


class TestClassPrototypes:
    def test_single_sample_classes_are_normalized_samples(self):
        feats = np.array([[3.0, 4.0], [0.0, 2.0]])
        protos = class_prototypes(feats, np.array([0, 1]), 2)
        np.testing.assert_allclose(protos.centers, [[0.6, 0.8], [0.0, 1.0]],
                                   atol=1e-12)

    def test_two_orthogonal_members_average_to_diagonal(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        protos = class_prototypes(feats, np.array([0, 0]), 1)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(protos.centers, [[r, r]], atol=1e-12)

    def test_swapping_same_class_samples_changes_nothing(self):
        feats = np.array([[2.0, 1.0], [1.0, 3.0], [4.0, 0.5], [0.5, 2.0]])
        labels = np.array([0, 1, 0, 1])
        a = class_prototypes(feats, labels, 2)
        swapped = feats[[2, 1, 0, 3]]
        b = class_prototypes(swapped, labels, 2)
        np.testing.assert_array_equal(a.centers, b.centers)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError, match="class 1 has no samples"):
            class_prototypes(np.eye(3), np.array([0, 0, 2]), 3)

    def test_cancelling_members_rejected(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="degenerates"):
            class_prototypes(feats, np.array([0, 0]), 1)

    def test_rows_are_unit_norm(self):
        rng = make_rng(1)
        feats = rng.normal(size=(30, 6)) + 0.2
        labels = rng.integers(0, 3, 30)
        labels[:3] = [0, 1, 2]
        protos = class_prototypes(feats, labels, 3)
        np.testing.assert_allclose(np.linalg.norm(protos.centers, axis=1), 1.0,
                                   atol=1e-9)


class TestPrototypesValidation:
    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            Prototypes(np.array([[2.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Prototypes(np.zeros((0, 3)))

    def test_the_norm_bound_follows_the_dtype(self):
        """1e-6 at float64; at float32 a bound scaled to the width (2 n eps)."""
        rows = l2_normalize_rows(make_rng(0).normal(size=(3, 256)))
        rows[0] *= 1.0 + 5e-6
        assert Prototypes(rows.astype(np.float32)).centers.dtype == np.float32
        with pytest.raises(ValueError, match="unit norm"):
            Prototypes(rows)
        rows[0] *= 1.0 + 1e-3
        with pytest.raises(ValueError, match="unit norm"):
            Prototypes(rows.astype(np.float32))


class TestSphericalKmeans:
    def test_identical_centers_keep_everything_in_class_zero(self):
        # exactly-unit inputs make re-normalization a bitwise no-op, so the
        # recentered class-0 prototype reproduces the init and iteration two
        # terminates with the tie rule still sending every row to index 0
        feats = basis_cloud()
        gm = feats.mean(axis=0)
        gm = gm / np.linalg.norm(gm)
        protos, assign, trace = spherical_kmeans(feats, Prototypes(np.tile(gm, (2, 1))))
        assert np.all(assign == 0)
        assert len(trace) == 2
        np.testing.assert_array_equal(protos.centers[0], protos.centers[1])

    def test_converged_init_stops_after_confirmation_pass(self):
        feats = basis_cloud()
        start = class_prototypes(feats, np.array([0, 0, 1, 1, 2, 2]), 3)
        protos, assign, trace = spherical_kmeans(feats, start)
        assert len(trace) == 2
        np.testing.assert_array_equal(assign, [0, 0, 1, 1, 2, 2])
        np.testing.assert_array_equal(protos.centers, start.centers)

    def test_single_center_takes_all(self):
        feats = make_rng(2).normal(size=(20, 4)) + 0.3
        init = class_prototypes(feats, np.zeros(20, dtype=np.int64), 1)
        _, assign, _ = spherical_kmeans(feats, init)
        assert np.all(assign == 0)

    def test_empty_cluster_keeps_its_center(self):
        feats = np.array([[1.0, 0.05], [1.0, -0.05], [1.0, 0.02]])
        far = np.array([-1.0, 0.0])
        init = Prototypes(np.array([[1.0, 0.0], far]))
        protos, assign, _ = spherical_kmeans(feats, init)
        assert np.all(assign == 0)
        np.testing.assert_array_equal(protos.centers[1], far)

    def test_objective_trace_never_decreases(self):
        rng = make_rng(3)
        feats = rng.normal(size=(80, 5)) + 0.1
        labels = rng.integers(0, 4, 80)
        labels[:4] = [0, 1, 2, 3]
        init = class_prototypes(feats, labels, 4)
        _, _, trace = spherical_kmeans(feats, init)
        assert np.all(np.diff(trace) > -1e-9)

    def test_deterministic(self):
        rng = make_rng(4)
        feats = rng.normal(size=(60, 5)) + 0.1
        init = class_prototypes(feats, rng.integers(0, 3, 60), 3)
        a = spherical_kmeans(feats, init)
        b = spherical_kmeans(feats, init)
        np.testing.assert_array_equal(a[0].centers, b[0].centers)
        np.testing.assert_array_equal(a[1], b[1])

    def test_power_of_two_scaling_is_bitwise_invariant(self):
        rng = make_rng(5)
        feats = rng.normal(size=(50, 4)) + 0.2
        init = class_prototypes(feats, rng.integers(0, 3, 50), 3)
        base = spherical_kmeans(feats, init)
        for scale in (4.0, 0.5):
            scaled = spherical_kmeans(feats * scale, init)
            np.testing.assert_array_equal(scaled[0].centers, base[0].centers)
            np.testing.assert_array_equal(scaled[1], base[1])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="widths"):
            spherical_kmeans(np.eye(3), Prototypes(np.array([[1.0, 0.0]])))

    def test_unit_rows_of_another_shape_rejected(self):
        init = Prototypes(np.eye(3))
        with pytest.raises(ValueError, match="unit rows"):
            spherical_kmeans(np.eye(3), init, unit=np.eye(3)[:2])

    @pytest.mark.parametrize("cap", [1, 2])
    def test_pass_limit_exit_assigns_to_the_returned_centers(self, monkeypatch, cap):
        monkeypatch.setattr(sfuda.sca, "_KMEANS_MAX_ITERS", cap)
        rng = make_rng(11)
        feats = rng.normal(size=(200, 5))
        init = Prototypes(l2_normalize_rows(rng.normal(size=(6, 5))))
        protos, assign, trace = spherical_kmeans(feats, init)
        assert len(trace) == cap  # the limit, not convergence, ended the loop
        want = (l2_normalize_rows(feats) @ protos.centers.T).argmax(axis=1)
        np.testing.assert_array_equal(assign, want)

    @staticmethod
    def assert_equals_reference(feats, init):
        want = full_recentering_kmeans(feats, init)
        for kwargs in ({}, {"unit": l2_normalize_rows(feats)}):
            protos, assign, trace = spherical_kmeans(feats, init, **kwargs)
            assert protos.centers.tobytes() == want[0].tobytes()
            assert assign.dtype == np.int64 and assign.tobytes() == want[1].tobytes()
            assert trace.tobytes() == want[2].tobytes()

    @given(st.integers(0, 10 ** 6), st.integers(1, 40), st.integers(1, 12),
           st.integers(2, 6), st.integers(0, 10), st.booleans(),
           st.sampled_from([1, 2, 3, 100]))
    @example(seed=0, n=3, k=9, d=4, dups=0, mirror=False, cap=100)
    @example(seed=1, n=5, k=3, d=3, dups=10, mirror=False, cap=100)
    @example(seed=2, n=6, k=1, d=3, dups=0, mirror=True, cap=100)
    @settings(max_examples=150, deadline=None)
    def test_recentering_moved_clusters_equals_full_recentering(
            self, seed, n, k, d, dups, mirror, cap):
        # k > n leaves clusters empty; duplicated rows tie; each row followed
        # by its opposite makes a cluster holding all of them sum to exactly 0
        rng = make_rng(seed)
        feats = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        feats = np.concatenate([feats, feats[rng.integers(0, n, dups)]])
        if mirror:
            feats = np.stack([feats, -feats], axis=1).reshape(-1, d)
        init = Prototypes(l2_normalize_rows(rng.normal(size=(k, d))))
        original = sfuda.sca._KMEANS_MAX_ITERS
        sfuda.sca._KMEANS_MAX_ITERS = cap
        try:
            self.assert_equals_reference(feats, init)
        finally:
            sfuda.sca._KMEANS_MAX_ITERS = original

    def test_zero_mean_cluster_keeps_its_center(self):
        feats = np.array([[1.0, 2.0], [-1.0, -2.0], [3.0, 0.5], [-3.0, -0.5]])
        init = Prototypes(np.array([[0.0, 1.0]]))
        protos, assign, _ = spherical_kmeans(feats, init)
        np.testing.assert_array_equal(protos.centers, init.centers)
        assert np.all(assign == 0)


class TestScaAdapt:
    def test_unshifted_target_matches_direct_prototype_labels(self):
        # with no shift the transported prototypes should land where the
        # source prototypes already were, so accuracies agree to a couple
        # of points
        src, tgt = gen_gaussian_pair(4, 8, 500, 6.0, ShiftSpec.identity(8),
                                     make_rng(3))
        labels, _ = sca_adapt(src, tgt.features)
        acc_sca = float((labels == tgt.labels).mean() * 100.0)
        protos = class_prototypes(src.features, src.labels, 4)
        direct = (l2_normalize_rows(tgt.features) @ protos.centers.T).argmax(axis=1)
        acc_direct = float((direct == tgt.labels).mean() * 100.0)
        assert abs(acc_sca - acc_direct) <= 2.0

    @pytest.mark.parametrize("centers, target, labels", [
        ([[0.0, 1.0], [0.0, 1.0]], [[1.0, 1.0]], [0]),  # a tie goes to the lower class
        ([[1.0, 0.0], [0.0, 1.0]], [[0.9, 0.1], [-0.2, 2.0]], [0, 1]),  # the aligned center
    ])
    def test_each_row_takes_its_nearest_adapted_prototype(self, centers, target, labels):
        source = DomainDataset("src", np.array(centers), np.array([0, 1]), 2)
        np.testing.assert_array_equal(sca_adapt(source, np.array(target))[0], labels)

    def test_rotation_recovered_better_than_frozen_probe(self):
        d = 8
        shift = ShiftSpec(np.zeros(d), np.ones(d), np.zeros(d),
                          rotation_angle=0.9, rotation_plane=(0, 1))
        src, tgt = gen_gaussian_pair(4, d, 100, 4.0, shift, make_rng(7))
        model = init_head(HeadConfig(d, 4, hidden_dim=32, seed=1))
        lp = train_supervised(model, src, "classifier_only", TrainConfig(seed=1))
        lp_acc = evaluate(lp, tgt.features, tgt.labels)
        labels, _ = sca_adapt(src, tgt.features)
        sca_acc = float((labels == tgt.labels).mean() * 100.0)
        assert sca_acc > lp_acc

    def test_single_class_labels_everything_zero(self):
        feats = make_rng(8).normal(size=(15, 4)) + 0.5
        source = DomainDataset("one", feats, np.zeros(15, dtype=np.int64), 1)
        labels, protos = sca_adapt(source, make_rng(9).normal(size=(10, 4)) + 0.5)
        assert np.all(labels == 0)
        assert protos.num_classes == 1

    def test_bottleneck_space_requires_model_and_keeps_it_frozen(self):
        src, tgt = gen_gaussian_pair(3, 6, 30, 4.0, ShiftSpec.identity(6),
                                     make_rng(10))
        with pytest.raises(ValueError, match="model"):
            sca_adapt(src, tgt.features, space="bottleneck")
        model = init_head(HeadConfig(6, 3, hidden_dim=8, seed=2))
        keep = {k: v.copy() for k, v in model.params().items()}
        sca_adapt(src, tgt.features, space="bottleneck", model=model)
        for k, v in model.params().items():
            np.testing.assert_array_equal(v, keep[k])

    def test_unlabeled_source_rejected(self):
        # a source without labels is never built, so it has no prototypes to transport
        with pytest.raises(LabelError, match="dataset 'u' needs integer labels"):
            DomainDataset("u", np.ones((5, 3)), None, 2)

    def test_unknown_space_rejected(self):
        src, tgt = gen_gaussian_pair(3, 6, 10, 4.0, ShiftSpec.identity(6),
                                     make_rng(11))
        with pytest.raises(ValueError, match="space"):
            sca_adapt(src, tgt.features, space="pixel")

    def test_width_mismatch_names_both_sides(self):
        src, _ = gen_gaussian_pair(3, 6, 10, 4.0, ShiftSpec.identity(6),
                                   make_rng(12))
        with pytest.raises(ValueError, match="target width 4.*source width 6"):
            sca_adapt(src, np.ones((5, 4)))
