import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sfuda.engine
import sfuda.harness
import sfuda.head
import sfuda.neighbors
from conftest import max_rel_err, shard_loop_step, tiny_model
from oracles import centralized_gradient, sharded_gradient
from sfuda.core import make_rng
from sfuda.data import LabelError, ShiftSpec, gen_gaussian_pair
from sfuda.distsim import (ADAPT_METHODS, GridResult, cell_columns, grid_specs, parse_cell,
                           run_distributed_grid)
from sfuda.engine import DEFAULT_GRID, DistConfig, adapt, sharded_step
from sfuda.harness import TaskSpec, mean_std, run_suite, run_task, spec_groups
from sfuda.head import (PARAM_NAMES, HeadConfig, LoopConfig, TrainConfig, init_head,
                        train_supervised)
from sfuda.neighbors import AadConfig, NrcConfig, aad_adapt, nrc_adapt
from sfuda.pcsr import PcsrConfig, pcsr_adapt
from sfuda.shot import ShotConfig, diversity_loss, entropy_loss, im_loss, shot_adapt


def trained_rig():
    src, tgt = gen_gaussian_pair(3, 6, 30, 5.0, ShiftSpec.identity(6), make_rng(9))
    model = init_head(HeadConfig(6, 3, hidden_dim=12, seed=0))
    trained = train_supervised(model, src, "classifier_only",
                               TrainConfig(epochs=10, seed=0))
    return src, tgt, trained


def sorted_batch(tgt, size=32):
    order = np.argsort(tgt.labels, kind="stable")
    return tgt.features[order][:size]


def drop_rows(objective):
    return lambda rows, logits: objective(logits)


class TestShardMachinery:
    @staticmethod
    def shard_shapes(n, dist):
        """The shard shape of each step adapt runs on n rows, batches of 64."""
        shapes = []

        def start(model, x, dist):
            def step(shards, _t):
                shapes.append(shards.shape)
                return 0.0, {}
            return step, None

        adapt(tiny_model(), np.zeros((n, 5)), LoopConfig(epochs=1, batch_size=64), dist, start)
        return shapes

    @pytest.mark.parametrize("n, batch", [(100, 64), (50, 48), (7, 4)])
    def test_effective_batch_rounds_to_worker_multiple(self, n, batch):
        assert self.shard_shapes(n, DistConfig(4, 16)) == [(4, batch // 4)] * (n // batch)

    def test_a_batch_smaller_than_the_workers_raises(self):
        with pytest.raises(ValueError, match="cannot split 3 rows across 4 workers"):
            self.shard_shapes(3, DistConfig(4, 16))

    def test_nrc_raises_the_split_error_before_any_forward(self, monkeypatch):
        def forward(*args):
            raise AssertionError("forward ran before the layout check")

        monkeypatch.setattr(sfuda.neighbors, "forward", forward)
        monkeypatch.setattr(sfuda.engine, "forward", forward)
        with pytest.raises(ValueError, match="cannot split 3 rows across 4 workers"):
            nrc_adapt(tiny_model(), make_rng(0).normal(size=(3, 5)), NrcConfig(),
                      dist=DistConfig(4, 16))

    def test_parse_cell(self):
        cfg = parse_cell("16x4")
        assert (cfg.workers, cfg.local_batch) == (16, 4)
        assert parse_cell("1X64").global_batch == 64
        with pytest.raises(ValueError, match="expected WxB"):
            parse_cell("16-4")

    def test_default_grid_shares_global_batch(self):
        assert {c.global_batch for c in DEFAULT_GRID} == {64}
        assert [c.label for c in DEFAULT_GRID][0] == "1x64"


class TestEachStepCallsItsModulesShardedStep:
    """test_stacked_losses swaps an adapter module's sharded_step for a
    per-shard reference loop and compares the results; that shows nothing
    unless every step of the adapter calls the module's sharded_step."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("adapter, module, cfg, per_step", [
        (shot_adapt, sfuda.shot, ShotConfig(epochs=2, batch_size=16, seed=0), 1),
        (pcsr_adapt, sfuda.shot, PcsrConfig(epochs=2, batch_size=16, seed=0), 2),
        (nrc_adapt, sfuda.neighbors, NrcConfig(epochs=2, batch_size=16, seed=0), 1),
        (aad_adapt, sfuda.neighbors, AadConfig(epochs=2, batch_size=16, seed=0), 1),
    ], ids=["shot", "pcsr-mixup", "nrc", "aad"])
    def test_sharded_step_calls_per_step(self, monkeypatch, workers, adapter, module, cfg,
                                         per_step):
        _, tgt, trained = trained_rig()
        calls, steps = [], []
        real_step, real_sgd = module.sharded_step, sfuda.head.sgd_step

        def counted(log, real):
            def wrapper(*args, **kwargs):
                log.append(1)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(module, "sharded_step", counted(calls, real_step))
        monkeypatch.setattr(sfuda.head, "sgd_step", counted(steps, real_sgd))
        adapter(trained, tgt.features, cfg, dist=DistConfig(workers, 16 // workers))
        assert len(steps) == cfg.epochs * (tgt.n // 16)
        assert len(calls) == per_step * len(steps)


class TestStackedStep:
    @given(st.sampled_from(["batchnorm", "layernorm"]), st.sampled_from(["relu", "gelu"]),
           st.booleans(), st.integers(1, 16), st.integers(1, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=150, deadline=None)
    def test_one_pass_equals_the_shard_loop_bit_for_bit(self, norm, act, sync, w, m, seed):
        if norm == "batchnorm" and (w * m if sync else m) < 2:
            m = 2   # batch statistics need two rows per pass
        rng = make_rng(seed)
        c = int(rng.integers(1, 5))
        model = tiny_model(seed=seed, d=int(rng.integers(1, 6)), h=int(rng.integers(1, 6)),
                           c=c, norm=norm, act=act)
        x = rng.normal(size=(w * m + 3, model.in_dim))
        shards = rng.permutation(len(x))[:w * m].reshape(w, m)
        targets = rng.dirichlet(np.ones(c), size=len(x))

        def shard_objective(wi, sh, logits):
            # a shard-coupled term and a per-row term, on one (m, C) shard
            v_im, d_im = im_loss(logits)
            return v_im + wi * float(targets[sh].sum()), d_im + targets[sh] * (wi + 1)

        def objective(rows, logits):
            # the same terms on the stacked (W, m, C) shards
            wi = np.arange(len(rows))
            v_im, d_im = im_loss(logits)
            return (v_im + wi * targets[rows].sum(axis=(-2, -1)),
                    d_im + targets[rows] * (wi + 1)[:, None, None])

        ref_model, new_model = model.copy(), model.copy()
        want = shard_loop_step(ref_model, x, shards, shard_objective, sync)
        got = sharded_step(new_model, x, shards, objective, sync)
        assert got[0] == want[0]
        assert list(got[1]) == list(want[1])
        for k in want[1]:
            assert got[1][k].tobytes() == want[1][k].tobytes()
        rows, logits, feats = got[2]
        np.testing.assert_array_equal(rows, np.stack([ws for ws, _, _ in want[2]]))
        assert logits.tobytes() == np.stack([wl for _, wl, _ in want[2]]).tobytes()
        assert feats.tobytes() == np.stack([wf for _, _, wf in want[2]]).tobytes()
        if norm == "batchnorm":
            assert new_model.norm.running_mean.tobytes() == ref_model.norm.running_mean.tobytes()
            assert new_model.norm.running_var.tobytes() == ref_model.norm.running_var.tobytes()


class TestGradientDecomposition:
    def test_single_worker_is_bitwise_centralized(self):
        _, tgt, model = trained_rig()
        batch = sorted_batch(tgt)
        for objective in (entropy_loss, diversity_loss, im_loss):
            ref = centralized_gradient(model, batch, drop_rows(objective))
            one = sharded_gradient(model, batch, drop_rows(objective),
                                   DistConfig(1, 32))
            for name in PARAM_NAMES:
                np.testing.assert_array_equal(one[name], ref[name])

    def test_per_sample_terms_survive_sharding(self):
        # the entropy term is a per-row average, so shard-local evaluation
        # redistributes the same summands
        _, tgt, model = trained_rig()
        batch = sorted_batch(tgt)
        ref = centralized_gradient(model, batch, drop_rows(entropy_loss))
        shard = sharded_gradient(model, batch, drop_rows(entropy_loss),
                                 DistConfig(4, 8))
        assert max(max_rel_err(shard[n], ref[n]) for n in PARAM_NAMES) < 1e-9

    def test_batch_coupled_term_shifts_under_skewed_shards(self):
        # sorting by class makes shard marginals one-sided, so the shard-local
        # diversity objective differs from the global one
        _, tgt, model = trained_rig()
        batch = sorted_batch(tgt)
        ref = centralized_gradient(model, batch, drop_rows(diversity_loss))
        shard = sharded_gradient(model, batch, drop_rows(diversity_loss),
                                 DistConfig(4, 8))
        assert max(max_rel_err(shard[n], ref[n]) for n in PARAM_NAMES) > 1e-3

    def test_replicated_shards_close_the_gap(self):
        # identical shard populations have identical marginals, so even the
        # batch-coupled term decomposes
        _, tgt, model = trained_rig()
        piece = sorted_batch(tgt, 8)
        batch = np.tile(piece, (4, 1))
        ref = centralized_gradient(model, batch, drop_rows(diversity_loss))
        shard = sharded_gradient(model, batch, drop_rows(diversity_loss),
                                 DistConfig(4, 8))
        assert max(max_rel_err(shard[n], ref[n]) for n in PARAM_NAMES) < 1e-9

    def test_caller_model_statistics_stay_put(self):
        _, tgt, _ = trained_rig()
        model = init_head(HeadConfig(6, 3, hidden_dim=12, norm_kind="batchnorm",
                                     seed=0))
        before_mean = model.norm.running_mean.copy()
        batch = sorted_batch(tgt)
        centralized_gradient(model, batch, drop_rows(im_loss))
        sharded_gradient(model, batch, drop_rows(im_loss), DistConfig(4, 8))
        np.testing.assert_array_equal(model.norm.running_mean, before_mean)


class TestDistributedGrid:
    def grid_pair(self):
        d = 12
        shift = dataclasses.replace(ShiftSpec.identity(d),
                                    mean_shift=np.full(d, 0.7),
                                    per_feature_scale=np.full(d, 1.4))
        return gen_gaussian_pair(8, d, 40, 3.0, shift, make_rng(11))

    def test_batch_insensitive_method_moves_less_than_neighbor_method(self):
        # the neighbor-dispersal objective leans on batch-level structure, so
        # cutting the batch into 16 shards of 4 hurts it far more than the
        # per-sample information objective
        src, tgt = self.grid_pair()
        grid = (DistConfig(1, 64), DistConfig(16, 4))
        shot = run_distributed_grid(
            "SHOT", src, tgt, grid=grid, seeds=(0,), hidden_dim=32,
            method_cfg=ShotConfig(epochs=8, learning_rate=0.1))
        aad = run_distributed_grid(
            "AAD", src, tgt, grid=grid, seeds=(0,), hidden_dim=32,
            method_cfg=AadConfig(epochs=8, learning_rate=0.1))
        shot_drop = shot.rows[0]["mean"] - shot.rows[1]["mean"]
        aad_drop = aad.rows[0]["mean"] - aad.rows[1]["mean"]
        assert abs(shot_drop) < abs(aad_drop)

    def test_grid_rows_are_reproducible(self):
        src, tgt = self.grid_pair()
        grid = (DistConfig(1, 16), DistConfig(4, 4))
        kw = dict(grid=grid, seeds=(0,), hidden_dim=16,
                  train_cfg=TrainConfig(epochs=4),
                  method_cfg=ShotConfig(epochs=2, batch_size=16))
        a = run_distributed_grid("SHOT", src, tgt, **kw)
        b = run_distributed_grid("SHOT", src, tgt, **kw)
        assert a.rows == b.rows
        assert isinstance(a, GridResult) and a.method == "SHOT"
        for row, cell in zip(a.rows, grid):
            assert row["cell"] == cell.label
            assert row["workers"] == cell.workers
            assert row["local_batch"] == cell.local_batch
            assert len(row["accuracies"]) == 1
            assert row["std"] == 0.0

    def test_a_sharded_spec_equals_its_grid_cell(self):
        src, tgt = self.grid_pair()
        cell, cfg, train = DistConfig(4, 4), ShotConfig(epochs=2), TrainConfig(epochs=4)
        grid = run_distributed_grid("SHOT", src, tgt, grid=(cell,), seeds=(1,),
                                    hidden_dim=16, train_cfg=train, method_cfg=cfg)
        # the default batch of 64 becomes the cell's 4x4 in the spec itself
        rec = run_task(TaskSpec("SFUDA", tgt, src, "SHOT", norm_kind="batchnorm",
                                hidden_dim=16, seed=1, train=train, method_config=cfg,
                                dist=cell))
        assert rec.error is None
        assert grid.rows[0]["accuracies"] == [rec.accuracy]

    def test_methods_in_one_grid_train_one_transfer_per_seed(self, monkeypatch):
        src, tgt = self.grid_pair()
        kw = dict(grid=(DistConfig(1, 16), DistConfig(4, 4)), seeds=(0, 1),
                  hidden_dim=16, train_cfg=TrainConfig(epochs=4))
        cfgs = {"SHOT": ShotConfig(epochs=1, batch_size=16),
                "AAD": AadConfig(epochs=1, batch_size=16)}
        alone = {m: run_distributed_grid(m, src, tgt, method_cfg=c, **kw).rows
                 for m, c in cfgs.items()}
        calls = []
        real = sfuda.harness.train_supervised

        def spy(model, data, scope, cfg, step_hook=None):
            calls.append(cfg.seed)
            return real(model, data, scope, cfg, step_hook)

        monkeypatch.setattr(sfuda.harness, "train_supervised", spy)
        specs = grid_specs(list(cfgs), src, tgt, kw["grid"], cfgs, norm_kind="batchnorm",
                           hidden_dim=16, train=kw["train_cfg"])
        records = run_suite(specs, kw["seeds"])
        assert len(calls) == len(set(calls)) == 2
        assert all(r.error is None for r in records)
        # method-major: each method's cells in grid order, each cell its seeds
        together = [[r.accuracy for r in g] for g in spec_groups(records, 2)]
        assert together == [row["accuracies"] for m in cfgs for row in alone[m]]

    def test_raising_cell_reads_nan_and_the_one_method_grid_raises(self):
        src, tgt = self.grid_pair()
        grid = (DistConfig(1, 64), DistConfig(64, 1))  # one-row batchnorm shards
        kw = dict(grid=grid, seeds=(0,), hidden_dim=16,
                  train_cfg=TrainConfig(epochs=2))
        specs = grid_specs(["SHOT"], src, tgt, grid, {"SHOT": ShotConfig(epochs=1)},
                           norm_kind="batchnorm", hidden_dim=16, train=kw["train_cfg"])
        first, broken = run_suite(specs, kw["seeds"])
        assert first.error is None
        assert broken.error == "ValueError: train-mode batchnorm needs a batch of at least 2"
        assert np.isfinite(mean_std([first], skip_raised=False)[0])
        assert np.isnan(mean_std([broken], skip_raised=False)[0])
        with pytest.raises(RuntimeError, match="1 grid record.*SHOT 64x1 seed 0"):
            run_distributed_grid("SHOT", src, tgt, method_cfg=ShotConfig(epochs=1), **kw)

    def test_prototype_transport_is_rejected_as_layout_invariant(self):
        src, tgt = self.grid_pair()
        with pytest.raises(ValueError, match="invariant"):
            run_distributed_grid("SCA", src, tgt)

    def test_unknown_method_rejected(self):
        src, tgt = self.grid_pair()
        with pytest.raises(ValueError, match="unknown method"):
            run_distributed_grid("DANN", src, tgt)

    def test_grid_specs_are_method_major_with_the_cell_columns(self):
        src, tgt = self.grid_pair()
        cells = (DistConfig(1, 16), DistConfig(4, 4))
        specs = grid_specs(["SHOT", "AAD"], src, tgt, cells)
        assert [(s.method, s.dist) for s in specs] == \
            [("SHOT", cells[0]), ("SHOT", cells[1]), ("AAD", cells[0]), ("AAD", cells[1])]
        assert [s.method_config.batch_size for s in specs] == [16] * 4
        assert cell_columns(cells[1]) == {"cell": "4x4", "workers": 4, "local_batch": 4}

    def test_mismatched_global_batches_rejected(self):
        src, tgt = self.grid_pair()
        with pytest.raises(ValueError, match="global batch"):
            run_distributed_grid("SHOT", src, tgt,
                                 grid=(DistConfig(1, 64), DistConfig(2, 16)))

    def test_unlabeled_target_rejected(self):
        _, tgt = self.grid_pair()
        with pytest.raises(LabelError, match=f"dataset {tgt.name!r} needs integer labels"):
            dataclasses.replace(tgt, labels=None)

    def test_method_registry_lists_the_gradient_adapters(self):
        assert set(ADAPT_METHODS) == {"SHOT", "NRC", "AAD", "PCSR"}
