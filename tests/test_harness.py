import hashlib
import json
import os
import traceback
from dataclasses import replace

import numpy as np
import pytest

import sfuda.harness
from sfuda.core import derive_rng, derive_seed, make_rng
from sfuda.data import DomainDataset, LabelError, ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.harness import (ADAPT_METHODS, ExperimentRecord, TaskSpec, failure_report,
                           format_mean_std, hyperparameter_grid, mean_std, run_suite,
                           run_task, spec_groups, stratified_split)
from sfuda.head import HeadConfig, TrainConfig, evaluate, init_head, train_supervised
from sfuda.neighbors import NrcConfig
from sfuda.pcsr import PcsrConfig
from sfuda.sca import sca_adapt
from sfuda.shot import ShotConfig, shot_adapt


def separable_target():
    x = make_rng(12).normal(size=(120, 6))
    x[:60, 0] += 5.0
    x[60:, 0] -= 5.0
    labels = np.repeat(np.array([0, 1], dtype=np.int64), 60)
    return DomainDataset("separable", x, labels, 2)


def small_shifted_pair(seed=40, C=3, d=6, n=25, sep=4.0):
    shift = ShiftSpec(np.full(d, 0.3), np.ones(d), np.zeros(d))
    return gen_gaussian_pair(C, d, n, sep, shift, make_rng(seed))


class CallLog:
    """One line per call, appended to a file, so that the calls a pooled
    suite makes in its worker processes are counted too."""

    def __init__(self, path):
        self.path = path

    def add(self, *fields):
        with open(self.path, "a") as fh:
            fh.write(json.dumps(fields) + "\n")

    def read(self) -> list[tuple]:
        if not self.path.exists():
            return []
        return [tuple(json.loads(line)) for line in self.path.read_text().splitlines()]


@pytest.fixture
def call_log(tmp_path):
    return CallLog(tmp_path / "calls.jsonl")


def by_method(records):
    return [r.method or "" for r in records]


def fake_record(group, delta, failed, task="SFUDA", baseline=70.0, error=None):
    acc = baseline + delta
    return ExperimentRecord(
        task=task, method=group, source_name="s", target_name="t",
        norm_kind="layernorm", seed=0, accuracy=acc, baseline_lp_odg=baseline,
        delta=delta, failed=failed, wall_time=0.0, error=error)


class TestTaskSpecValidation:
    def test_unknown_task(self):
        tgt = separable_target()
        with pytest.raises(ValueError, match="unknown task"):
            TaskSpec(task="LP-XXX", target=tgt)

    def test_out_of_domain_needs_source(self):
        tgt = separable_target()
        with pytest.raises(ValueError, match="needs a source"):
            TaskSpec(task="LP-ODG", target=tgt)

    def test_adaptation_needs_method(self):
        src, tgt = small_shifted_pair()
        with pytest.raises(ValueError, match="needs an adaptation method"):
            TaskSpec(task="SFUDA", target=tgt, source=src)

    def test_plain_tasks_reject_methods(self):
        src, tgt = small_shifted_pair()
        with pytest.raises(ValueError, match="does not take a method"):
            TaskSpec(task="LP-ODG", target=tgt, source=src, method="SHOT")

    def test_unknown_method(self):
        src, tgt = small_shifted_pair()
        with pytest.raises(ValueError, match="unknown method"):
            TaskSpec(task="SFUDA", target=tgt, source=src, method="DANN")

    def test_width_and_class_count_checked(self):
        src, _ = small_shifted_pair()
        other = DomainDataset("o", np.zeros((8, 4)), np.arange(8) % 2, 2)
        with pytest.raises(ValueError, match="widths"):
            TaskSpec(task="LP-ODG", target=other, source=src)
        src2, tgt2 = gen_gaussian_pair(2, 6, 10, 3.0, ShiftSpec.identity(6),
                                       make_rng(0))
        tri, _ = small_shifted_pair()
        with pytest.raises(ValueError, match="class counts"):
            TaskSpec(task="LP-ODG", target=tgt2, source=tri)

    def test_resolves_train_and_method_settings_from_the_run_seed(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT", seed=3)
        assert spec.train == TrainConfig(seed=derive_seed(3, "first-transfer"))
        assert spec.method_config == ShotConfig(seed=derive_seed(3, "adapt"))
        moved = replace(spec, seed=4)
        assert moved.train.seed == derive_seed(4, "first-transfer")
        assert moved.method_config.seed == derive_seed(4, "adapt")

    def test_a_sharded_adapter_runs_the_global_batch(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                        dist=DistConfig(4, 4), method_config=ShotConfig(batch_size=64))
        assert spec.method_config.batch_size == 16

    def test_a_config_of_another_method_is_a_type_error(self):
        src, tgt = small_shifted_pair()
        with pytest.raises(TypeError, match="SHOT takes a ShotConfig, not a NrcConfig"):
            TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                     method_config=NrcConfig())

    @pytest.mark.parametrize("task, method", [("LP-ODG", None), ("SFUDA", "SCA")])
    def test_a_method_config_without_an_adapter_is_rejected(self, task, method):
        src, tgt = small_shifted_pair()
        with pytest.raises(ValueError, match=f"{method or task} takes no method config"):
            TaskSpec(task=task, target=tgt, source=src, method=method,
                     method_config=ShotConfig())

    def test_unlabeled_targets_rejected(self):
        # a target without labels is never built, so no spec can score one
        with pytest.raises(LabelError, match="dataset 'b' needs integer labels"):
            DomainDataset("b", np.zeros((6, 3)), None, 2)


class TestRunTask:
    def test_in_domain_probe_on_separable_data(self):
        rec = run_task(TaskSpec(task="LP-IDG", target=separable_target(),
                                hidden_dim=16, seed=0))
        assert rec.accuracy >= 95.0
        assert np.isnan(rec.baseline_lp_odg)
        assert rec.failed is False

    def test_baseline_task_sits_exactly_on_its_own_baseline(self):
        src, tgt = small_shifted_pair()
        rec = run_task(TaskSpec(task="LP-ODG", target=tgt, source=src,
                                hidden_dim=16, seed=0))
        assert rec.baseline_lp_odg == rec.accuracy
        assert rec.delta == 0.0
        assert rec.failed is False

    def test_adaptation_shares_the_standalone_baseline(self):
        src, tgt = small_shifted_pair()
        base = run_task(TaskSpec(task="LP-ODG", target=tgt, source=src,
                                 hidden_dim=16, seed=1))
        ad = run_task(TaskSpec(task="SFUDA", target=tgt, source=src,
                               method="SHOT", hidden_dim=16, seed=1,
                               method_config=ShotConfig(epochs=3)))
        assert ad.baseline_lp_odg == base.accuracy
        assert ad.delta == ad.accuracy - ad.baseline_lp_odg
        assert ad.failed == (ad.accuracy < ad.baseline_lp_odg)
        assert ad.wall_time > 0.0

    def test_prototype_transport_runs_in_both_spaces(self):
        src, tgt = small_shifted_pair()
        before = tgt.features.copy()
        raw = run_task(TaskSpec(task="SFUDA", target=tgt, source=src,
                                method="SCA", hidden_dim=16, seed=0))
        bottleneck = run_task(TaskSpec(task="FT-SFUDA", target=tgt, source=src,
                                       method="SCA", hidden_dim=16, seed=0,
                                       train=TrainConfig(epochs=10)))
        assert np.isfinite(raw.accuracy) and np.isfinite(bottleneck.accuracy)
        np.testing.assert_array_equal(tgt.features, before)

    def test_full_finetune_start_keeps_adaptation_gains(self):
        d = 10
        shift = ShiftSpec(np.zeros(d), np.full(d, 2.0), np.zeros(d),
                          rotation_angle=0.2)
        src, tgt = gen_gaussian_pair(5, d, 60, 3.0, shift, make_rng(21))
        cfg = ShotConfig(epochs=25, batch_size=32, learning_rate=0.05)
        ft = run_task(TaskSpec(task="FT-ODG", target=tgt, source=src,
                               hidden_dim=32, seed=0))
        ft_shot = run_task(TaskSpec(task="FT-SFUDA", target=tgt, source=src,
                                    method="SHOT", hidden_dim=32, seed=0,
                                    method_config=cfg))
        assert ft_shot.accuracy >= ft.accuracy + 3.0


class TestTheGrid:
    """Each task's record is its definition in the paper's grid, built here
    from the primitives: a first transfer at the task's scope (linear probe
    or fine-tune), scored in-domain on a held-out split, on the full target,
    or after source-free adaptation. The baseline is the probe's ODG score."""

    @pytest.mark.parametrize("task, method, scope", [
        ("LP-IDG", None, "classifier_only"), ("FT-IDG", None, "full"),
        ("LP-ODG", None, "classifier_only"), ("FT-ODG", None, "full"),
        ("SFUDA", "SCA", "classifier_only"), ("SFUDA", "SHOT", "classifier_only"),
        ("FT-SFUDA", "SCA", "full"),
    ])
    def test_each_record_is_its_definition_bit_for_bit(self, task, method, scope):
        # data and training where LP and FT, and raw and bottleneck SCA, disagree
        src, tgt = small_shifted_pair(sep=2.0, n=40)
        seed, shot = 3, ShotConfig(epochs=2, batch_size=16)
        train = {"epochs": 10, "learning_rate": 0.3}
        rec = run_task(TaskSpec(task=task, target=tgt, source=src, method=method,
                                hidden_dim=16, seed=seed, train=TrainConfig(**train),
                                method_config=shot if method == "SHOT" else None))

        head_cfg = HeadConfig(tgt.d, tgt.num_classes, 16, "layernorm", "relu",
                              seed=derive_seed(seed, "head-init"))
        train_cfg = TrainConfig(**train, seed=derive_seed(seed, "first-transfer"))

        def transfer(data, at):
            return train_supervised(init_head(head_cfg), data, at, train_cfg)

        if task.endswith("IDG"):
            tr, te = stratified_split(tgt.labels, 0.8, derive_rng(seed, "idg-split"))
            split = DomainDataset("split", tgt.features[tr], tgt.labels[tr], tgt.num_classes)
            accuracy = evaluate(transfer(split, scope), tgt.features[te], tgt.labels[te])
        elif task.endswith("ODG"):
            accuracy = evaluate(transfer(src, scope), tgt.features, tgt.labels)
        elif method == "SCA":
            space = "raw" if scope == "classifier_only" else "bottleneck"
            labels, _ = sca_adapt(src, tgt.features, space, model=transfer(src, scope))
            accuracy = float((labels == tgt.labels).mean() * 100.0)
        else:
            adapted = shot_adapt(transfer(src, scope), tgt.features,
                                 replace(shot, seed=derive_seed(seed, "adapt")))
            accuracy = evaluate(adapted, tgt.features, tgt.labels)
        baseline = evaluate(transfer(src, "classifier_only"), tgt.features, tgt.labels)
        assert (rec.accuracy, rec.baseline_lp_odg) == (accuracy, baseline)
        assert rec.error is None and np.isfinite(accuracy)


class TestSuite:
    def test_single_seed_aggregate(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        records = run_suite([spec], [0])
        assert isinstance(records, list) and len(records) == 1
        assert mean_std(records) == (records[0].accuracy, 0.0, 1)

    def test_two_seed_aggregate_uses_sample_std(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        records = run_suite([spec], [0, 1])
        accs = [r.accuracy for r in records]
        mean, std, n = mean_std(records)
        assert n == 2
        assert mean == pytest.approx(np.mean(accs))
        assert std == pytest.approx(np.std(accs, ddof=1))

    def test_flattening_order_is_spec_major(self):
        src, tgt = small_shifted_pair()
        specs = [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16),
                 TaskSpec(task="FT-ODG", target=tgt, source=src, hidden_dim=16,
                          train=TrainConfig(epochs=5))]
        records = run_suite(specs, [3, 4])
        assert [(r.task, r.seed) for r in records] == \
            [("LP-ODG", 3), ("LP-ODG", 4), ("FT-ODG", 3), ("FT-ODG", 4)]

    def test_spec_groups_go_by_position(self):
        # a spec listed twice keeps two groups, though their records are equal
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        records = run_suite([spec, spec], [3, 4])
        groups = spec_groups(records, 2)
        assert groups == [records[:2], records[2:]]
        assert [scores(r) for r in groups[0]] == [scores(r) for r in groups[1]]

    def test_bitwise_reproducible(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                        hidden_dim=16, method_config=ShotConfig(epochs=3))
        a = run_suite([spec], [0, 1])
        b = run_suite([spec], [0, 1])
        assert [r.accuracy for r in a] == [r.accuracy for r in b]

    def test_process_pool_matches_serial(self):
        src, tgt = small_shifted_pair()
        specs = [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16),
                 TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                          hidden_dim=16, method_config=ShotConfig(epochs=3)),
                 TaskSpec(task="SFUDA", target=tgt, source=src, method="NRC",
                          hidden_dim=16, method_config=NrcConfig(K=200, epochs=1))]
        serial = run_suite(specs, [0, 1], jobs=1)
        pooled = run_suite(specs, [0, 1], jobs=2)
        assert serial[-1].error is not None  # an error record is compared too
        assert [(scores(r), r.failed, r.error) for r in serial] == \
            [(scores(r), r.failed, r.error) for r in pooled]

    def test_without_fork_a_pooled_suite_runs_serially(self, monkeypatch):
        src, tgt = small_shifted_pair()
        specs = [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16),
                 TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                          hidden_dim=16, method_config=ShotConfig(epochs=3))]
        pooled = run_suite(specs, [0, 1], jobs=2)
        monkeypatch.delattr(os, "fork")
        serial = run_suite(specs, [0, 1], jobs=2)
        assert [scores(r) for r in serial] == [scores(r) for r in pooled]

    def test_a_raising_run_is_isolated_and_recorded(self):
        src, tgt = small_shifted_pair()
        bad = TaskSpec(task="SFUDA", target=tgt, source=src, method="NRC",
                       hidden_dim=16, method_config=NrcConfig(K=200, epochs=1))
        good = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        bad_rec, good_rec = run_suite([bad, good], [0])
        # an error is not an adaptation failure
        assert bad_rec.failed is False
        assert np.isnan(bad_rec.accuracy)
        assert bad_rec.error.startswith("ValueError:")
        assert np.isfinite(good_rec.accuracy)
        # a raised record stays out of the mean, or makes it nan when kept
        assert mean_std([bad_rec, good_rec]) == (good_rec.accuracy, 0.0, 1)
        assert np.isnan(mean_std([bad_rec])[0]) and mean_std([bad_rec])[2] == 0
        assert np.isnan(mean_std([bad_rec, good_rec], skip_raised=False)[0])

    def test_an_adapter_that_mutates_the_target_breaks_the_contract(self, monkeypatch):
        src, tgt = small_shifted_pair()
        cfg_cls, adapt_fn = ADAPT_METHODS["SHOT"]

        def mutating(model, feats, cfg, dist=None):
            feats += 1.0
            return adapt_fn(model, feats, cfg, dist)

        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, mutating))
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                        hidden_dim=16, method_config=ShotConfig(epochs=1))
        rec, = run_suite([spec], [0])
        assert rec.failed is False
        assert rec.error == "ValueError: output array is read-only"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_mutating_adapter_is_an_error_and_leaves_the_target(self, monkeypatch, jobs):
        src, tgt = small_shifted_pair()
        before = tgt.features.tobytes()
        cfg_cls, adapt_fn = ADAPT_METHODS["SHOT"]

        def mutating(model, feats, cfg, dist=None):
            feats[0, 0] = 0.0
            return adapt_fn(model, feats, cfg, dist)

        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, mutating))
        common = dict(target=tgt, source=src, hidden_dim=16, train=TrainConfig(epochs=2))
        specs = [TaskSpec(task="LP-ODG", **common),
                 TaskSpec(task="SFUDA", method="SHOT",
                          method_config=ShotConfig(epochs=1), **common)]
        lp, _, bad, _ = run_suite(specs, [0, 1], jobs=jobs)
        assert lp.error is None
        assert bad.failed is False and np.isnan(bad.accuracy)
        assert "read-only" in bad.error
        assert tgt.features.tobytes() == before


def data_digest(data):
    return hashlib.sha256(data.features.tobytes() + data.labels.tobytes()).hexdigest()


class TrainSpy:
    """Stands in for harness.train_supervised: logs each call's (scope,
    training data digest, seed) to a CallLog and raises on the calls
    fail(scope, data) picks."""

    def __init__(self, log, fail=lambda scope, data: False):
        self.real = sfuda.harness.train_supervised
        self.log = log
        self.fail = fail

    @property
    def calls(self):
        return self.log.read()

    def __call__(self, model, data, scope, cfg, step_hook=None):
        self.log.add(scope, data_digest(data), cfg.seed)
        if self.fail(scope, data):
            raise RuntimeError("first transfer broke")
        return self.real(model, data, scope, cfg, step_hook)


def scores(rec):
    return np.array([rec.accuracy, rec.baseline_lp_odg, rec.delta]).tobytes()


class TestSharedFirstTransfer:
    """A suite trains each distinct first transfer once and shares it; no
    record's numbers move by a bit against running it alone."""

    @staticmethod
    def specs(src, tgt):
        common = dict(target=tgt, source=src, hidden_dim=16,
                      train=TrainConfig(epochs=4))
        shot = ShotConfig(epochs=2, batch_size=16)
        return [TaskSpec(task="LP-IDG", **common),
                TaskSpec(task="LP-ODG", **common),
                TaskSpec(task="FT-ODG", **common),
                TaskSpec(task="SFUDA", method="SCA", **common),
                TaskSpec(task="SFUDA", method="SHOT", method_config=shot, **common),
                TaskSpec(task="SFUDA", method="PCSR",
                         method_config=PcsrConfig(epochs=2, batch_size=16), **common),
                TaskSpec(task="FT-SFUDA", method="SHOT", method_config=shot, **common)]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_training_per_distinct_transfer_and_standalone_scores(
            self, monkeypatch, call_log, jobs):
        src, tgt = small_shifted_pair()
        specs = self.specs(src, tgt)
        spy = TrainSpy(call_log)
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        records = run_suite(specs, [0, 1], jobs=jobs)
        # per seed: LP on the in-domain split, LP and FT on the source
        assert len(spy.calls) == len(set(spy.calls)) == 6
        assert all(r.error is None for r in records)
        alone = [run_task(replace(spec, seed=seed)) for spec in specs for seed in (0, 1)]
        assert [scores(r) for r in records] == [scores(r) for r in alone]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_in_domain_split_is_drawn_once_per_record(self, monkeypatch, call_log, jobs):
        lp_idg = self.specs(*small_shifted_pair())[0]
        real = sfuda.harness.stratified_split

        def split(labels, train_frac, rng):
            call_log.add(train_frac)
            return real(labels, train_frac, rng)

        monkeypatch.setattr(sfuda.harness, "stratified_split", split)
        records = run_suite([lp_idg, replace(lp_idg, task="FT-IDG")], [0, 1], jobs=jobs)
        assert all(r.error is None for r in records)
        assert len(call_log.read()) == len(records) == 4

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_raising_transfer_fails_every_record_that_needs_it(
            self, monkeypatch, call_log, jobs):
        src, tgt = small_shifted_pair()
        needs_lp = self.specs(src, tgt)[1:]
        no_source = TaskSpec(task="LP-IDG", target=tgt, hidden_dim=16,
                             train=TrainConfig(epochs=4))
        spy = TrainSpy(call_log, fail=lambda scope, data: scope == "classifier_only"
                       and data is src)
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        kept, *broken = run_suite([no_source] + needs_lp, [0], jobs=jobs)
        assert [r.error for r in broken] == \
            ["RuntimeError: first transfer broke"] * len(needs_lp)
        # the failure is stored: trained once, its error shared by every record
        assert sum(scope == "classifier_only" and digest == data_digest(src)
                   for scope, digest, _ in spy.calls) == 1
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy.real)
        assert kept.error is None
        assert scores(kept) == scores(run_task(no_source))

    def test_every_first_transfer_trains_before_the_first_adaptation(self, monkeypatch):
        src, tgt = small_shifted_pair()
        # adapting records first, so that training on demand would interleave
        specs = self.specs(src, tgt)[::-1]
        events = []
        real_train = sfuda.harness.train_supervised
        cfg_cls, adapt_fn = ADAPT_METHODS["SHOT"]

        def train(model, data, scope, cfg, step_hook=None):
            events.append("train")
            return real_train(model, data, scope, cfg, step_hook)

        def adapt(model, feats, cfg, dist=None):
            events.append("adapt")
            return adapt_fn(model, feats, cfg, dist)

        monkeypatch.setattr(sfuda.harness, "train_supervised", train)
        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, adapt))
        records = run_suite(specs, [0, 1], jobs=1)
        assert all(r.error is None for r in records)
        assert events == ["train"] * 6 + ["adapt"] * 4

    def test_a_stored_error_is_raised_fresh_and_a_base_exception_is_stored_nowhere(
            self, monkeypatch, call_log):
        src, tgt = small_shifted_pair()
        needs_lp = self.specs(src, tgt)[1:]
        spy = TrainSpy(call_log, fail=lambda scope, data: scope == "classifier_only")
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        transfers = sfuda.harness._first_transfers(needs_lp)
        stored, = {id(v): v for v in transfers.values() if isinstance(v, Exception)}.values()
        assert stored.__traceback__ is None  # no frame of the training outlives it
        depths = []
        for spec in needs_lp:
            with pytest.raises(RuntimeError) as raised:
                run_task(spec, transfers)
            assert raised.value is stored
            depths.append(len(traceback.extract_tb(raised.tb)))
        # one computation, one error object, raised at the same depth each time
        assert [scope for scope, _, _ in spy.calls].count("classifier_only") == 1
        assert len(set(depths)) == 1

        def abort(model, data, scope, cfg, step_hook=None):
            call_log.add("abort")
            raise Abort()

        monkeypatch.setattr(sfuda.harness, "train_supervised", abort)
        before = len(call_log.read())
        for _ in range(2):
            with pytest.raises(Abort):
                run_suite(needs_lp, [0])
        # each suite stopped at its first training, and nothing kept the Abort
        assert call_log.read()[before:] == [("abort",)] * 2


BLAS = sfuda.harness._blas_thread_controls()
needs_openblas = pytest.mark.skipif(not BLAS, reason="no loaded OpenBLAS found")


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_counts():
    return [get() for _, get in BLAS]


class Abort(BaseException):
    """Escapes run_suite's per-record isolation, which catches Exception."""


class TestBlasThreadCap:
    """Each worker of a pooled suite caps its BLAS threads at its share of
    the cores when it starts; the counts of the process that runs the suite
    never change, serial suites leave them alone, and no result depends on
    the count."""

    @pytest.fixture
    def full_threads(self):
        """Every OpenBLAS at one thread per usable core, restored after."""
        cpus = usable_cpus()
        if cpus < 2:
            pytest.skip("a cap needs at least two usable cores to show")
        before = blas_counts()
        for setter, _ in BLAS:
            setter(cpus)
        yield cpus
        for (setter, _), n in zip(BLAS, before):
            setter(n)

    @staticmethod
    def spy_counts(monkeypatch, log, raises=None):
        """Logs to log the BLAS thread counts each first transfer sees."""
        real = sfuda.harness.train_supervised

        def spy(model, data, scope, cfg, step_hook=None):
            log.add(*blas_counts())
            if raises is not None:
                raise raises
            return real(model, data, scope, cfg, step_hook)

        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)

    @staticmethod
    def two_records():
        src, tgt = small_shifted_pair()
        return [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16,
                         train=TrainConfig(epochs=2))], [0, 1]

    @needs_openblas
    def test_pool_workers_see_their_share_and_the_count_comes_back(
            self, monkeypatch, call_log, full_threads):
        self.spy_counts(monkeypatch, call_log)
        records = run_suite(*self.two_records(), jobs=2)
        assert all(r.error is None for r in records)
        assert call_log.read() == [(min(full_threads, full_threads // 2),) * len(BLAS)] * 2
        assert blas_counts() == [full_threads] * len(BLAS)

    @needs_openblas
    def test_count_comes_back_when_records_raise(self, monkeypatch, call_log, full_threads):
        self.spy_counts(monkeypatch, call_log, raises=RuntimeError("boom"))
        records = run_suite(*self.two_records(), jobs=2)
        assert [r.error for r in records] == ["RuntimeError: boom"] * 2
        assert blas_counts() == [full_threads] * len(BLAS)
        self.spy_counts(monkeypatch, call_log, raises=Abort())
        with pytest.raises(Abort):
            run_suite(*self.two_records(), jobs=2)
        assert blas_counts() == [full_threads] * len(BLAS)

    @needs_openblas
    def test_a_worker_at_one_thread_keeps_no_idle_blas_pool(
            self, monkeypatch, call_log, full_threads):
        if full_threads // 2 > 1 or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs a share of one core per worker and /proc")
        real = sfuda.harness.train_supervised

        def spy(model, data, scope, cfg, step_hook=None):
            call_log.add(len(os.listdir("/proc/self/task")))  # the worker's threads
            return real(model, data, scope, cfg, step_hook)

        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        run_suite(*self.two_records(), jobs=2)
        assert call_log.read() == [(1,)] * 2

    @needs_openblas
    @pytest.mark.parametrize("jobs,n_seeds", [(1, 2), (2, 1)])
    def test_a_suite_without_a_pool_leaves_the_count_alone(
            self, monkeypatch, call_log, full_threads, jobs, n_seeds):
        self.spy_counts(monkeypatch, call_log)
        specs, seeds = self.two_records()
        run_suite(specs, seeds[:n_seeds], jobs=jobs)
        assert call_log.read() == [(full_threads,) * len(BLAS)] * n_seeds

    @needs_openblas
    def test_no_library_found_means_no_cap(self, monkeypatch, call_log, full_threads):
        monkeypatch.setattr(sfuda.harness, "_openblas_libraries", lambda: [])
        assert sfuda.harness._blas_thread_controls() == []
        self.spy_counts(monkeypatch, call_log)
        run_suite(*self.two_records(), jobs=2)
        assert call_log.read() == [(full_threads,) * len(BLAS)] * 2

    def test_the_cap_never_raises_a_count(self, monkeypatch):
        counts = {"low": 1, "high": 16}
        log = []

        def control(name):
            def setter(n):
                log.append((name, n))
                counts[name] = n
            return setter, lambda: counts[name]

        monkeypatch.setattr(sfuda.harness, "_blas_thread_controls",
                            lambda: [control("low"), control("high")])
        monkeypatch.setattr(sfuda.harness.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        sfuda.harness._cap_blas_threads(2)
        assert counts == {"low": 1, "high": 4}
        assert log == [("high", 4)]

    def test_blas_thread_count_changes_no_result_byte(self):
        # big enough that OpenBLAS splits its GEMMs over threads at jobs 1
        shift = ShiftSpec(np.full(128, 0.2), np.ones(128), np.zeros(128))
        src, tgt = gen_gaussian_pair(4, 128, 250, 3.0, shift, make_rng(3))
        common = dict(target=tgt, source=src, hidden_dim=128, train=TrainConfig(epochs=1))
        specs = [TaskSpec(task="FT-ODG", **common),
                 TaskSpec(task="SFUDA", method="SHOT",
                          method_config=ShotConfig(epochs=1), **common)]
        serial = run_suite(specs, [0, 1], jobs=1)
        pooled = run_suite(specs, [0, 1], jobs=2)
        assert all(r.error is None for r in serial)
        assert [scores(r) for r in serial] == [scores(r) for r in pooled]
        if not BLAS or usable_cpus() < 2:
            pytest.skip("comparing BLAS thread counts needs OpenBLAS and two usable cores")
        before = blas_counts()
        try:
            for threads in (1, usable_cpus()):
                for setter, _ in BLAS:
                    setter(threads)
                assert blas_counts() == [threads] * len(BLAS)
                rerun = run_suite(specs, [0, 1], jobs=1)
                assert [scores(r) for r in rerun] == [scores(r) for r in serial], threads
        finally:
            for (setter, _), n in zip(BLAS, before):
                setter(n)


class TestFormatting:
    def test_mean_std_rendering(self):
        assert format_mean_std(88.5, 0.7071067811865476, 2) == "88.5 ± 0.7"
        assert format_mean_std(88.81, 0.549, 3) == "88.8 ± 0.5"
        assert format_mean_std(50.0, 0.0, 1) == "50.0 ± 0.0 (n=1)"


class TestFailureReport:
    def test_rates_and_partition(self):
        records = ([fake_record("AAD", -2.0, True)] +
                   [fake_record("AAD", 1.0, False)] * 3 +
                   [fake_record("SHOT", 2.0, False)] * 3)
        rows, notes = failure_report(records, by_method(records))
        by = {r["group"]: r for r in rows}
        assert by["AAD"]["failure_rate"] == 25.0
        assert by["SHOT"]["failure_rate"] == 0.0
        assert by["AAD"]["error_rate"] == by["SHOT"]["error_rate"] == 0.0
        assert sum(r["n"] for r in rows) == len(records)
        assert notes == []
        assert by["AAD"]["delta_mean"] == pytest.approx((-2.0 + 3.0) / 4.0)
        assert by["SHOT"]["delta_std"] == 0.0

    def test_baseline_free_records_are_noted(self):
        nan = float("nan")
        idg = ExperimentRecord(task="LP-IDG", method=None, source_name="",
                               target_name="t", norm_kind="layernorm", seed=0,
                               accuracy=97.0, baseline_lp_odg=nan, delta=nan,
                               failed=False, wall_time=0.0)
        records = [idg, fake_record("SHOT", 1.0, False)]
        rows, notes = failure_report(records, by_method(records))
        assert len(rows) == 1
        assert notes == ["1 record(s) without a baseline omitted"]

    def test_errored_records_count_as_errors_not_failures(self):
        err = fake_record("SHOT", float("nan"), True, error="ValueError: x")
        err.baseline_lp_odg = float("nan")
        records = [err, fake_record("SHOT", 1.0, False), fake_record("SHOT", -1.0, True)]
        rows, _ = failure_report(records, by_method(records))
        assert rows[0]["n"] == 3
        assert rows[0]["failure_rate"] == 50.0
        assert rows[0]["error_rate"] == pytest.approx(100.0 / 3)
        assert rows[0]["delta_mean"] == 0.0

    def test_a_group_where_every_record_raised_has_no_failure_rate(self):
        err = fake_record("SHOT", float("nan"), True, error="ValueError: x")
        rows, _ = failure_report([err], ["SHOT"])
        assert rows[0]["error_rate"] == 100.0
        assert np.isnan(rows[0]["failure_rate"])

    def test_one_label_per_record(self):
        with pytest.raises(ValueError, match="zip"):
            failure_report([fake_record("SHOT", 1.0, False)], [])


class TestHyperparameterGrid:
    def sweep_fixture(self):
        src, tgt = small_shifted_pair(seed=41, C=3, d=6, n=15)
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="NRC",
                        hidden_dim=16, train=TrainConfig(epochs=8))
        return src, tgt, spec

    def test_two_by_five_sweep_has_ten_specs(self):
        src, tgt, _ = self.sweep_fixture()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="AAD",
                        hidden_dim=16, train=TrainConfig(epochs=8))
        specs, keys = hyperparameter_grid({"K": [3, 5], "beta": [0.0, 0.75, 1.0, 2.0, 5.0]},
                                          spec)
        assert len(specs) == len(keys) == 10
        assert all(list(key) == ["K", "beta"] for key in keys)
        assert len({tuple(key.values()) for key in keys}) == 10
        # each spec's config carries its combination
        assert [(s.method_config.K, s.method_config.beta) for s in specs] == \
            [tuple(key.values()) for key in keys]

    def test_four_by_four_sweep_has_sixteen_specs(self):
        _, _, spec = self.sweep_fixture()
        specs, _ = hyperparameter_grid({"K": [2, 3, 4, 5], "KK": [2, 3, 4, 5]}, spec)
        records = run_suite(specs, [0])
        assert len(records) == 16
        assert all(np.isfinite(r.accuracy) for r in records)

    def test_single_cell_matches_plain_suite(self):
        _, tgt, spec = self.sweep_fixture()
        specs, keys = hyperparameter_grid({"K": [3]}, spec)
        assert keys == [{"K": 3}]
        direct = run_suite([replace(spec, method_config=NrcConfig(K=3))], [0])
        assert run_suite(specs, [0])[0].accuracy == direct[0].accuracy

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_first_transfer_per_seed_across_combinations(self, monkeypatch, call_log,
                                                              jobs):
        _, _, spec = self.sweep_fixture()
        specs, _ = hyperparameter_grid({"K": [2, 3, 4], "KK": [2, 3]}, spec)
        expected = run_suite(specs, [0, 1])
        spy = TrainSpy(call_log)
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        records = run_suite(specs, [0, 1], jobs=jobs)
        assert len(spy.calls) == len(set(spy.calls)) == 2
        assert len(records) == 12
        assert [scores(r) for r in records] == [scores(r) for r in expected]

    def test_unknown_parameter_rejected(self):
        _, _, spec = self.sweep_fixture()
        with pytest.raises(ValueError, match="no parameter"):
            hyperparameter_grid({"neighbors": [3]}, spec)

    def test_a_value_that_raises_fails_only_its_records(self):
        _, tgt, spec = self.sweep_fixture()
        specs, keys = hyperparameter_grid({"K": [3, tgt.n], "epochs": [1]}, spec)
        ok, bad = spec_groups(run_suite(specs, [0, 1]), 2)
        assert keys[1] == {"K": tgt.n, "epochs": 1}
        assert all(r.error is None for r in ok)
        assert [r.error.split(": ")[0] for r in bad] == ["ValueError"] * 2

    def test_prototype_transport_rejected(self):
        src, tgt, _ = self.sweep_fixture()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SCA",
                        hidden_dim=16)
        with pytest.raises(ValueError, match="no swept hyperparameters"):
            hyperparameter_grid({"K": [3]}, spec)


class TestStratifiedSplit:
    def test_partition_and_per_class_fractions(self):
        labels = np.repeat(np.arange(4), 25)
        tr, te = stratified_split(labels, 0.8, make_rng(0))
        assert sorted(np.concatenate([tr, te]).tolist()) == list(range(100))
        for c in range(4):
            assert (labels[tr] == c).sum() == 20
            assert (labels[te] == c).sum() == 5

    def test_both_sides_nonempty_when_possible(self):
        labels = np.array([0, 0, 1, 1])
        tr, te = stratified_split(labels, 0.99, make_rng(1))
        for c in (0, 1):
            assert (labels[tr] == c).sum() >= 1
            assert (labels[te] == c).sum() >= 1

    def test_seeded(self):
        labels = np.repeat(np.arange(3), 10)
        a = stratified_split(labels, 0.7, make_rng(5))
        b = stratified_split(labels, 0.7, make_rng(5))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
