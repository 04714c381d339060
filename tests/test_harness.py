import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import sfuda.harness
from sfuda.core import make_rng
from sfuda.data import DomainDataset, ShiftSpec, gen_gaussian_pair
from sfuda.harness import (ADAPT_METHODS, ExperimentRecord, SuiteResult, TaskSpec,
                           failure_report, format_mean_std,
                           hyperparameter_grid, run_suite, run_task,
                           stratified_split)
from sfuda.head import TrainConfig
from sfuda.neighbors import NrcConfig
from sfuda.pcsr import PcsrConfig
from sfuda.shot import ShotConfig


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


def fake_record(group, delta, failed, task="SFUDA", baseline=70.0, error=None):
    acc = baseline + delta
    return ExperimentRecord(
        task=task, method=group, source_name="s", target_name="t",
        norm_kind="layernorm", seed=0, accuracy=acc, baseline_lp_odg=baseline,
        delta=delta, failed=failed, wall_time=0.0, manifest={}, error=error)


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

    def test_unlabeled_targets_rejected(self):
        bare = DomainDataset("b", np.zeros((6, 3)), None, 2)
        with pytest.raises(ValueError, match="target labels"):
            TaskSpec(task="LP-IDG", target=bare)


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

    def test_prototype_transport_runs_in_both_spaces(self):
        src, tgt = small_shifted_pair()
        raw = run_task(TaskSpec(task="SFUDA", target=tgt, source=src,
                                method="SCA", hidden_dim=16, seed=0))
        bottleneck = run_task(TaskSpec(task="FT-SFUDA", target=tgt, source=src,
                                       method="SCA", hidden_dim=16, seed=0,
                                       train=TrainConfig(epochs=10)))
        assert np.isfinite(raw.accuracy) and np.isfinite(bottleneck.accuracy)
        assert raw.manifest["target"]["features_sha256"] \
            == bottleneck.manifest["target"]["features_sha256"]

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

    def test_manifest_carries_provenance(self):
        src, tgt = small_shifted_pair()
        rec = run_task(TaskSpec(task="SFUDA", target=tgt, source=src,
                                method="SHOT", hidden_dim=16, seed=2,
                                method_config=ShotConfig(epochs=2)))
        m = rec.manifest
        assert m["task"] == "SFUDA" and m["method"] == "SHOT"
        assert m["source"]["n"] == src.n
        assert len(m["target"]["features_sha256"]) == 64
        assert m["method_config"]["epochs"] == 2
        assert m["method_config"]["seed"] != 2  # derived, not the raw seed
        assert rec.wall_time > 0.0


class TestSuite:
    def test_single_seed_aggregate(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        result = run_suite([spec], [0])
        assert isinstance(result, SuiteResult)
        agg = result.aggregates[0]
        assert agg["n_seeds"] == 1 and agg["n_ok"] == 1
        assert agg["std"] == 0.0
        assert agg["summary"].endswith("(n=1)")

    def test_two_seed_aggregate_uses_sample_std(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        result = run_suite([spec], [0, 1])
        accs = [r.accuracy for r in result.records]
        agg = result.aggregates[0]
        assert agg["mean"] == pytest.approx(np.mean(accs))
        assert agg["std"] == pytest.approx(np.std(accs, ddof=1))

    def test_flattening_order_is_spec_major(self):
        src, tgt = small_shifted_pair()
        specs = [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16),
                 TaskSpec(task="FT-ODG", target=tgt, source=src, hidden_dim=16,
                          train=TrainConfig(epochs=5))]
        result = run_suite(specs, [3, 4])
        assert [(r.task, r.seed) for r in result.records] == \
            [("LP-ODG", 3), ("LP-ODG", 4), ("FT-ODG", 3), ("FT-ODG", 4)]

    def test_bitwise_reproducible(self):
        src, tgt = small_shifted_pair()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                        hidden_dim=16, method_config=ShotConfig(epochs=3))
        a = run_suite([spec], [0, 1])
        b = run_suite([spec], [0, 1])
        assert [r.accuracy for r in a.records] == [r.accuracy for r in b.records]

    def test_thread_pool_matches_serial(self):
        src, tgt = small_shifted_pair()
        specs = [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16),
                 TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                          hidden_dim=16, method_config=ShotConfig(epochs=3))]
        serial = run_suite(specs, [0, 1], jobs=1)
        pooled = run_suite(specs, [0, 1], jobs=2)
        assert [r.accuracy for r in serial.records] == \
            [r.accuracy for r in pooled.records]

    def test_without_fork_a_pooled_suite_runs_serially(self, monkeypatch):
        src, tgt = small_shifted_pair()
        specs = [TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16),
                 TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                          hidden_dim=16, method_config=ShotConfig(epochs=3))]
        pooled = run_suite(specs, [0, 1], jobs=2)
        monkeypatch.delattr(os, "fork")
        serial = run_suite(specs, [0, 1], jobs=2)
        assert [scores(r) for r in serial.records] == [scores(r) for r in pooled.records]

    def test_a_raising_run_is_isolated_and_recorded(self):
        src, tgt = small_shifted_pair()
        bad = TaskSpec(task="SFUDA", target=tgt, source=src, method="NRC",
                       hidden_dim=16, method_config=NrcConfig(K=200, epochs=1))
        good = TaskSpec(task="LP-ODG", target=tgt, source=src, hidden_dim=16)
        result = run_suite([bad, good], [0])
        bad_rec, good_rec = result.records
        assert bad_rec.failed is True
        assert np.isnan(bad_rec.accuracy)
        assert bad_rec.error.startswith("ValueError:")
        assert result.aggregates[0]["summary"] == "no successful runs"
        assert np.isfinite(good_rec.accuracy)
        assert result.aggregates[1]["n_ok"] == 1

    def test_an_adapter_that_mutates_the_target_breaks_the_contract(self, monkeypatch):
        src, tgt = small_shifted_pair()
        cfg_cls, adapt_fn = ADAPT_METHODS["SHOT"]

        def mutating(model, feats, cfg, dist=None):
            feats += 1.0
            return adapt_fn(model, feats, cfg, dist)

        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, mutating))
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                        hidden_dim=16, method_config=ShotConfig(epochs=1))
        rec, = run_suite([spec], [0]).records
        assert rec.failed is True
        assert "adapter modified the target features" in rec.error

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_dataset_is_hashed_once_per_suite(self, monkeypatch, call_log, jobs):
        src, tgt = small_shifted_pair()
        real = sfuda.harness._features_hash

        def spy(x):
            call_log.add("hash")
            return real(x)

        monkeypatch.setattr(sfuda.harness, "_features_hash", spy)
        common = dict(target=tgt, source=src, hidden_dim=16, train=TrainConfig(epochs=2))
        shot = ShotConfig(epochs=1)
        specs = [TaskSpec(task="LP-IDG", **common), TaskSpec(task="LP-ODG", **common),
                 TaskSpec(task="SFUDA", method="SCA", **common),
                 TaskSpec(task="SFUDA", method="SHOT", method_config=shot, **common),
                 TaskSpec(task="FT-SFUDA", method="SHOT", method_config=shot, **common)]
        records = run_suite(specs, [0, 1], jobs=jobs).records
        assert all(r.error is None for r in records)
        # source and target once each, plus one "after" hash per adapted record
        assert len(call_log.read()) == 2 + 3 * 2
        for r in records:
            assert r.manifest["source"]["features_sha256"] == real(src.features)
            assert r.manifest["target"]["features_sha256"] == real(tgt.features)


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
        result = run_suite(specs, [0, 1], jobs=jobs)
        # per seed: LP on the in-domain split, LP and FT on the source
        assert len(spy.calls) == len(set(spy.calls)) == 6
        assert all(r.error is None for r in result.records)
        alone = [run_task(replace(spec, seed=seed)) for spec in specs for seed in (0, 1)]
        assert [scores(r) for r in result.records] == [scores(r) for r in alone]

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
        result = run_suite([no_source] + needs_lp, [0], jobs=jobs)
        kept, *broken = result.records
        assert [r.error for r in broken] == \
            ["RuntimeError: first transfer broke"] * len(needs_lp)
        # a failure is not stored: each record retried and got its own error
        assert sum(scope == "classifier_only" and digest == data_digest(src)
                   for scope, digest, _ in spy.calls) == len(needs_lp)
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy.real)
        assert kept.error is None
        assert scores(kept) == scores(run_task(no_source))


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
    """A pooled suite caps BLAS threads at the workers' share of the
    cores for its lifetime and restores them after; serial suites leave
    them alone, and no result depends on the count."""

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
        result = run_suite(*self.two_records(), jobs=2)
        assert all(r.error is None for r in result.records)
        assert call_log.read() == [(min(full_threads, full_threads // 2),) * len(BLAS)] * 2
        assert blas_counts() == [full_threads] * len(BLAS)

    @needs_openblas
    def test_count_comes_back_when_records_raise(self, monkeypatch, call_log, full_threads):
        self.spy_counts(monkeypatch, call_log, raises=RuntimeError("boom"))
        result = run_suite(*self.two_records(), jobs=2)
        assert [r.error for r in result.records] == ["RuntimeError: boom"] * 2
        assert blas_counts() == [full_threads] * len(BLAS)
        self.spy_counts(monkeypatch, call_log, raises=Abort())
        with pytest.raises(Abort):
            run_suite(*self.two_records(), jobs=2)
        assert blas_counts() == [full_threads] * len(BLAS)

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
        with sfuda.harness._blas_thread_cap(2):
            assert counts == {"low": 1, "high": 4}
        assert log == [("high", 4), ("high", 16)]

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
        assert all(r.error is None for r in serial.records)
        assert [scores(r) for r in serial.records] == [scores(r) for r in pooled.records]


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
        rows, notes = failure_report(records, "method")
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
                               failed=False, wall_time=0.0, manifest={})
        rows, notes = failure_report([idg, fake_record("SHOT", 1.0, False)],
                                     "method")
        assert len(rows) == 1
        assert notes == ["1 record(s) without a baseline omitted"]

    def test_errored_records_count_as_errors_not_failures(self):
        err = fake_record("SHOT", float("nan"), True, error="ValueError: x")
        err.baseline_lp_odg = float("nan")
        rows, _ = failure_report([err, fake_record("SHOT", 1.0, False),
                                  fake_record("SHOT", -1.0, True)], "method")
        assert rows[0]["n"] == 3
        assert rows[0]["failure_rate"] == 50.0
        assert rows[0]["error_rate"] == pytest.approx(100.0 / 3)
        assert rows[0]["delta_mean"] == 0.0

    def test_a_group_where_every_record_raised_has_no_failure_rate(self):
        err = fake_record("SHOT", float("nan"), True, error="ValueError: x")
        rows, _ = failure_report([err], "method")
        assert rows[0]["error_rate"] == 100.0
        assert np.isnan(rows[0]["failure_rate"])

    def test_unknown_grouping_rejected(self):
        with pytest.raises(ValueError, match="group_by"):
            failure_report([], "seed")


class TestHyperparameterGrid:
    def sweep_fixture(self):
        src, tgt = small_shifted_pair(seed=41, C=3, d=6, n=15)
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="NRC",
                        hidden_dim=16, train=TrainConfig(epochs=8))
        return src, tgt, spec

    def test_two_by_five_sweep_has_ten_rows(self):
        src, tgt, _ = self.sweep_fixture()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="AAD",
                        hidden_dim=16, train=TrainConfig(epochs=8))
        out = hyperparameter_grid("AAD", {"K": [3, 5],
                                          "beta": [0.0, 0.75, 1.0, 2.0, 5.0]},
                                  [spec], [0])
        assert out["method"] == "AAD"
        assert out["params"] == ["K", "beta"]
        assert len(out["rows"]) == 10
        combos = [tuple(r["combo"].values()) for r in out["rows"]]
        assert len(set(combos)) == 10
        assert all(r["n_total"] == 1 for r in out["rows"])

    def test_four_by_four_sweep_has_sixteen_rows(self):
        _, _, spec = self.sweep_fixture()
        out = hyperparameter_grid("NRC", {"K": [2, 3, 4, 5], "KK": [2, 3, 4, 5]},
                                  [spec], [0])
        assert len(out["rows"]) == 16
        assert all(np.isfinite(r["mean"]) for r in out["rows"])

    def test_single_cell_matches_plain_suite(self):
        _, tgt, spec = self.sweep_fixture()
        out = hyperparameter_grid("NRC", {"K": [3]}, [spec], [0])
        direct = run_suite([replace(spec, method_config=NrcConfig(K=3))], [0])
        assert out["rows"][0]["mean"] == direct.records[0].accuracy

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_first_transfer_per_seed_across_combinations(self, monkeypatch, call_log,
                                                              jobs):
        _, _, spec = self.sweep_fixture()
        grid = {"K": [2, 3, 4], "KK": [2, 3]}
        expected = hyperparameter_grid("NRC", grid, [spec], [0, 1])
        spy = TrainSpy(call_log)
        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        out = hyperparameter_grid("NRC", grid, [spec], [0, 1], jobs=jobs)
        assert len(spy.calls) == len(set(spy.calls)) == 2
        assert out == expected
        assert [r["n_total"] for r in out["rows"]] == [2] * 6

    def test_unknown_parameter_rejected(self):
        _, _, spec = self.sweep_fixture()
        with pytest.raises(ValueError, match="no parameter"):
            hyperparameter_grid("NRC", {"neighbors": [3]}, [spec], [0])

    def test_mismatched_spec_method_rejected(self):
        src, tgt, _ = self.sweep_fixture()
        other = TaskSpec(task="SFUDA", target=tgt, source=src, method="SHOT",
                         hidden_dim=16)
        with pytest.raises(ValueError, match="swept method"):
            hyperparameter_grid("NRC", {"K": [3]}, [other], [0])

    def test_prototype_transport_rejected(self):
        src, tgt, _ = self.sweep_fixture()
        spec = TaskSpec(task="SFUDA", target=tgt, source=src, method="SCA",
                        hidden_dim=16)
        with pytest.raises(ValueError, match="no swept hyperparameters"):
            hyperparameter_grid("SCA", {"K": [3]}, [spec], [0])


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
