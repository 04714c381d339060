import dataclasses

import numpy as np
import pytest

from sfuda.core import make_rng
from sfuda.data import (DomainDataset, ShiftSpec, embeddings_bytes, gen_gaussian_pair,
                        labels_text, load_embeddings, load_results_table)
from sfuda.head import HeadConfig, TrainConfig, evaluate, init_head, train_supervised


def invert(shift, y):
    """The inverse of shift.apply, written out: subtract the translation,
    divide out the scale, rotate back."""
    x = (y - shift.mean_shift - shift.per_feature_offset) / shift.per_feature_scale
    i, j = shift.rotation_plane
    c, s = np.cos(shift.rotation_angle), np.sin(shift.rotation_angle)
    x[:, i], x[:, j] = c * x[:, i] + s * x[:, j], -s * x[:, i] + c * x[:, j]
    return x


def small_pair(seed=0, C=3, d=6, n=50, sep=4.0, shift=None):
    if shift is None:
        shift = ShiftSpec.identity(d)
    return gen_gaussian_pair(C, d, n, sep, shift, make_rng(seed))


class TestGeneration:
    def test_identity_shift_matches_source_statistics(self):
        # target redraws the same clusters, so samples differ but moments agree
        src, tgt = small_pair(n=800)
        np.testing.assert_array_equal(src.labels, tgt.labels)
        assert not np.array_equal(src.features, tgt.features)
        for c in range(3):
            mu_s = src.features[src.labels == c].mean(axis=0)
            mu_t = tgt.features[tgt.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_s - mu_t) < 0.4
        ratio = tgt.features.var(axis=0) / src.features.var(axis=0)
        assert np.all(ratio > 0.8) and np.all(ratio < 1.2)

    def test_scale_three_inflates_variance(self):
        d = 5
        shift = dataclasses.replace(ShiftSpec.identity(d),
                                    per_feature_scale=np.full(d, 3.0))
        src, tgt = gen_gaussian_pair(2, d, 1000, 2.0, shift, make_rng(1))
        # per class, per feature: var should grow ninefold within sampling noise
        for c in (0, 1):
            vs = src.features[src.labels == c].var(axis=0)
            vt = tgt.features[tgt.labels == c].var(axis=0)
            ratio = vt / vs
            assert np.all(ratio > 9.0 * 0.8)
            assert np.all(ratio < 9.0 * 1.2)

    def test_wide_separation_is_linearly_probeable(self):
        src, _ = gen_gaussian_pair(4, 8, 100, 10.0, ShiftSpec.identity(8), make_rng(0))
        model = init_head(HeadConfig(8, 4, hidden_dim=16, seed=0))
        model = train_supervised(model, src, "classifier_only",
                                 TrainConfig(epochs=20, seed=0))
        assert evaluate(model, src.features, src.labels) >= 99.0

    def test_bitwise_deterministic(self):
        a_src, a_tgt = small_pair(seed=9)
        b_src, b_tgt = small_pair(seed=9)
        np.testing.assert_array_equal(a_src.features, b_src.features)
        np.testing.assert_array_equal(a_tgt.features, b_tgt.features)
        np.testing.assert_array_equal(a_tgt.labels, b_tgt.labels)

    def test_mean_shift_moves_class_means(self):
        d = 4
        shift = dataclasses.replace(ShiftSpec.identity(d),
                                    mean_shift=np.full(d, 2.5))
        src, tgt = gen_gaussian_pair(2, d, 800, 3.0, shift, make_rng(3))
        delta = tgt.features.mean(axis=0) - src.features.mean(axis=0)
        np.testing.assert_allclose(delta, 2.5, atol=0.2)

    def test_label_noise_flips_roughly_that_fraction(self):
        d = 4
        shift = dataclasses.replace(ShiftSpec.identity(d), label_noise=0.25)
        src, tgt = gen_gaussian_pair(3, d, 600, 3.0, shift, make_rng(4))
        # flip count is rounded exactly and every flip lands on a new class
        frac = float(np.mean(src.labels != tgt.labels))
        assert abs(frac - 0.25) < 1e-12

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            gen_gaussian_pair(1, 4, 10, 2.0, ShiftSpec.identity(4), make_rng(0))
        with pytest.raises(ValueError):
            gen_gaussian_pair(3, 1, 10, 2.0, ShiftSpec.identity(1), make_rng(0))
        with pytest.raises(ValueError):
            gen_gaussian_pair(3, 4, 10, -1.0, ShiftSpec.identity(4), make_rng(0))


class TestShiftSpec:
    def test_invert_round_trips(self):
        d = 6
        shift = ShiftSpec(mean_shift=np.arange(d, dtype=float),
                          per_feature_scale=np.linspace(0.5, 2.0, d),
                          per_feature_offset=np.full(d, -1.0),
                          rotation_angle=0.7, rotation_plane=(1, 4))
        x = make_rng(5).normal(size=(30, d))
        np.testing.assert_allclose(invert(shift, shift.apply(x)), x, atol=1e-10)

    def test_invertible_shift_recoverable_by_nearest_neighbor(self):
        # an affine target is the same point cloud in new coordinates, so
        # mapping it back must line up with source samples almost exactly
        d = 6
        shift = ShiftSpec(mean_shift=np.full(d, 1.0),
                          per_feature_scale=np.full(d, 2.0),
                          per_feature_offset=np.zeros(d),
                          rotation_angle=0.4)
        src, tgt = gen_gaussian_pair(4, d, 500, 6.0, shift, make_rng(6))
        back = invert(shift, tgt.features)
        # class means in recovered coordinates should match source class means
        for c in range(4):
            mu_s = src.features[src.labels == c].mean(axis=0)
            mu_b = back[tgt.labels == c].mean(axis=0)
            assert np.linalg.norm(mu_s - mu_b) < 0.6

    def test_validation_errors(self):
        d = 4
        with pytest.raises(ValueError, match="per_feature_scale"):
            ShiftSpec(np.zeros(d), np.zeros(d), np.zeros(d)).validate(d)
        with pytest.raises(ValueError, match="rotation_plane"):
            ShiftSpec(np.zeros(d), np.ones(d), np.zeros(d),
                      rotation_plane=(2, 2)).validate(d)
        with pytest.raises(ValueError, match="label_noise"):
            ShiftSpec(np.zeros(d), np.ones(d), np.zeros(d),
                      label_noise=1.0).validate(d)
        with pytest.raises(ValueError, match="shape"):
            ShiftSpec(np.zeros(d + 1), np.ones(d), np.zeros(d)).validate(d)


class TestDatasetValidation:
    def test_label_equal_to_class_count_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            DomainDataset("bad", np.zeros((4, 2)), np.array([0, 1, 2, 3]), 3)

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            DomainDataset("bad", np.zeros((4, 2)), np.array([0, 0, 2, 2]), 3)

    def test_nonfinite_rejected(self):
        f = np.zeros((3, 2))
        f[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DomainDataset("bad", f, np.array([0, 1, 0]), 2)

    def test_unlabeled_allowed(self):
        ds = DomainDataset("ok", np.zeros((3, 2)), None, 2)
        assert ds.labels is None and ds.n == 3 and ds.d == 2

    def test_float64_features_are_frozen_in_place(self):
        x = np.zeros((3, 2))
        ds = DomainDataset("ok", x, None, 2)
        assert ds.features is x and not x.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ds.features += 1.0


def save(dataset, fpath, lpath=None):
    """Writes dataset in the files `gen-data` writes."""
    with open(fpath, "wb") as fh:
        fh.write(embeddings_bytes(dataset))
    if lpath is not None:
        with open(lpath, "w") as fh:
            fh.write(labels_text(dataset))


class TestEmbeddingsIO:
    def test_float32_round_trip(self, tmp_path):
        src, _ = small_pair(seed=2, n=20)
        fpath, lpath = str(tmp_path / "e.bin"), str(tmp_path / "e.labels")
        save(src, fpath, lpath)
        back = load_embeddings(fpath, lpath)
        expect = src.features.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back.features, expect)
        np.testing.assert_array_equal(back.labels, src.labels)
        assert back.num_classes == src.num_classes

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        src, _ = small_pair(seed=2, n=10, d=6)
        fpath = str(tmp_path / "e.bin")
        save(src, fpath)
        raw = open(fpath, "rb").read()
        open(fpath, "wb").write(raw[:-8])
        expected = 30 * 6 * 4  # n=10 per class, 3 classes
        with pytest.raises(ValueError, match=f"expected {expected} payload bytes, "
                                             f"found {expected - 8}"):
            load_embeddings(fpath, num_classes=3)

    def test_bad_magic(self, tmp_path):
        fpath = str(tmp_path / "e.bin")
        open(fpath, "wb").write(b"XXXX" + b"\0" * 12)
        with pytest.raises(ValueError, match="magic"):
            load_embeddings(fpath, num_classes=2)

    def test_truncated_header(self, tmp_path):
        fpath = str(tmp_path / "e.bin")
        open(fpath, "wb").write(b"\0" * 7)
        with pytest.raises(ValueError, match="truncated header"):
            load_embeddings(fpath, num_classes=2)

    def test_label_count_mismatch(self, tmp_path):
        src, _ = small_pair(seed=2, n=10)
        fpath, lpath = str(tmp_path / "e.bin"), str(tmp_path / "e.labels")
        save(src, fpath, lpath)
        lines = open(lpath).read().splitlines()[:-2]
        open(lpath, "w").write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected 30 labels, found 28"):
            load_embeddings(fpath, lpath)

    def test_a_stray_large_label_names_the_file_and_the_label(self, tmp_path):
        src, _ = small_pair(seed=2, n=10)
        fpath, lpath = str(tmp_path / "e.bin"), str(tmp_path / "e.labels")
        save(src, fpath, lpath)
        lines = open(lpath).read().splitlines()
        open(lpath, "w").write("\n".join(lines[:-1] + ["99"]) + "\n")
        with pytest.raises(ValueError) as err:
            load_embeddings(fpath, lpath)
        assert str(err.value) == (f"{lpath}: largest label 99 implies 100 classes, "
                                  "but there are 30 rows")
        # a given class count is checked against the labels instead
        with pytest.raises(ValueError, match="label out of range"):
            load_embeddings(fpath, lpath, num_classes=3)

    def test_features_only_needs_class_count(self, tmp_path):
        src, _ = small_pair(seed=2, n=10)
        fpath = str(tmp_path / "e.bin")
        save(src, fpath)
        with pytest.raises(ValueError, match="num_classes"):
            load_embeddings(fpath)
        back = load_embeddings(fpath, num_classes=3)
        assert back.labels is None and back.num_classes == 3


class TestResultsTable:
    GOOD = ("backbone,top1,pretrain,task,accuracy\n"
            "resnet50,76.1,1,office,71.3\n"
            "resnet101,77.4,1,office,73.0\n"
            "vit-b,81.0,0,visda,68.8\n")

    def test_three_rows_parse(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.GOOD)
        table = load_results_table(str(p))
        assert len(table.rows) == 3
        assert table.rows[0].backbone == "resnet50"
        assert table.rows[2].pretrain == 0
        assert table.rows[1].accuracy == 73.0

    def test_non_numeric_field_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("backbone,top1,pretrain,task,accuracy\n"
                     "resnet50,abc,1,office,71.3\n")
        with pytest.raises(ValueError, match="line 2: non-numeric"):
            load_results_table(str(p))

    def test_pretrain_flag_must_be_binary(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("backbone,top1,pretrain,task,accuracy\n"
                     "resnet50,76.1,2,office,71.3\n")
        with pytest.raises(ValueError, match="pretrain flag"):
            load_results_table(str(p))

    def test_all_problems_reported(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("backbone,top1,pretrain,task,accuracy\n"
                     "a,abc,1,office,71.3\n"
                     "b,76.1,2,office,71.3\n")
        with pytest.raises(ValueError) as exc:
            load_results_table(str(p))
        msg = str(exc.value)
        assert "line 2" in msg and "line 3" in msg

    def test_a_comment_line_counts_in_the_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# a comment\n"
                     "backbone,top1,pretrain,task,accuracy\n"
                     "resnet50,76.1,1,office,71.3\n"
                     "resnet101,abc,1,office,73.0\n"
                     "# another\n"
                     "vit-b,81.0,2,visda,68.8\n")
        with pytest.raises(ValueError) as exc:
            load_results_table(str(p))
        assert str(exc.value) == (f"{p}: line 4: non-numeric field; "
                                  "line 6: pretrain flag must be 0 or 1")

    def test_wrong_header(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            load_results_table(str(p))

    def test_filter_task(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.GOOD)
        table = load_results_table(str(p))
        assert len(table.filter_task("office").rows) == 2
        assert len(table.filter_task(None).rows) == 3
