"""End-to-end acceptance gate.

Each test covers one shipped guarantee, prints a single PASS/FAIL line, and
asserts its own wall-clock budget. Tolerances are pinned; the directional
checks run on frozen seeded constructions with wide margins.
"""
import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from conftest import FD_TOL, fd_param_grads, grad_gap, max_rel_err, tiny_model
from oracles import adabn, centralized_gradient, sharded_gradient
from sfuda.cli import main as cli_main
from sfuda.core import knn_indices, log_softmax, make_rng, one_hot, softmax
from sfuda.data import ShiftSpec, gen_gaussian_pair
from sfuda.distsim import parse_cell
from sfuda.engine import DistConfig
from sfuda.harness import TaskSpec, run_task
from sfuda.head import (HeadConfig, TrainConfig, backward, cross_entropy,
                        evaluate, forward, init_head, smoothed_targets,
                        train_supervised)
from sfuda.neighbors import (AadConfig, NrcConfig, aad_loss, build_bank,
                             nrc_loss, sample_backgrounds, softmax_score_grad)
from sfuda.pcsr import PcsrConfig, mixup_batch, pcsr_adapt
from sfuda.sca import class_prototypes, spherical_kmeans
from sfuda.shot import (ShotConfig, diversity_loss, entropy_loss, im_loss,
                        shot_adapt, shot_pseudo_labels)
from sfuda.core import derive_seed
from sfuda.stats import adjusted_r2, fit_linear, fit_multilinear
from sfuda.data import ResultsRow, ResultsTable


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    in_budget = elapsed < budget_s
    print(f"[criterion {num:02d}] {name}: {'PASS' if in_budget else 'FAIL'} "
          f"({elapsed:.1f}s of {budget_s:.0f}s budget)")
    assert in_budget, f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget"


def _flat(grads):
    return np.concatenate([grads[k].ravel() for k in sorted(grads)])


def _rel_gap(grads, ref):
    return float(np.linalg.norm(_flat(grads) - _flat(ref))
                 / np.linalg.norm(_flat(ref)))


def test_01_loss_gradients_match_finite_differences():
    with criterion(1, "analytic loss gradients match finite differences", 30.0):
        worst = 0.0
        for t in range(20):
            rng = make_rng(1000 + t)
            d = int(rng.integers(3, 7))
            h = int(rng.integers(4, 8))
            c = int(rng.integers(3, 5))
            b = int(rng.integers(6, 11))
            norm = "batchnorm" if t % 2 == 0 else "layernorm"
            act = "relu" if t % 4 < 2 else "gelu"
            base = tiny_model(seed=t, d=d, h=h, c=c, norm=norm, act=act)
            bank_x = rng.normal(size=(b + 6, d))
            xb = bank_x[:b]
            bidx = np.arange(b)
            targets = smoothed_targets(rng.integers(0, c, b), c, 0.1)

            def check(loss_value, analytic, model):
                numeric = fd_param_grads(model, loss_value)
                return grad_gap(analytic, numeric)

            # mean soft-target cross entropy
            m = base.copy()
            logits, _, cache = forward(m, xb, "train")
            _, dl = cross_entropy(logits, targets)
            g = backward(m, cache, dl)
            worst = max(worst, check(
                lambda: cross_entropy(forward(m, xb, "train")[0], targets)[0],
                g, m))

            # entropy plus diversity objective
            m = base.copy()
            logits, _, cache = forward(m, xb, "train")
            _, dl = im_loss(logits)
            g = backward(m, cache, dl)
            worst = max(worst, check(
                lambda: im_loss(forward(m, xb, "train")[0])[0], g, m))

            # neighbor-affinity objective, fixed anchor and bank; gelu keeps
            # every bottleneck row nonzero for the cosine-space bank
            smooth = tiny_model(seed=t, d=d, h=h, c=c, norm=norm, act="gelu")
            m = smooth.copy()
            bank = build_bank(m, bank_x)
            ncfg = NrcConfig(K=3, KK=3)
            logits, _, cache = forward(m, xb, "train")
            p0 = softmax(logits)
            anchor = p0.copy()
            _, dscores = nrc_loss(p0, bidx, bank, ncfg, self_anchor=anchor)
            g = backward(m, cache, softmax_score_grad(p0, dscores))

            def nrc_value():
                p = softmax(forward(m, xb, "train")[0])
                return nrc_loss(p, bidx, bank, ncfg, self_anchor=anchor)[0]

            worst = max(worst, check(nrc_value, g, m))

            # attract-disperse objective, fixed backgrounds
            m = smooth.copy()
            bank = build_bank(m, bank_x)
            acfg = AadConfig(K=2)
            neigh = knn_indices(bank.features, acfg.K)[bidx]
            bgs = sample_backgrounds(bank.n, neigh, bidx, acfg.background_size,
                                     make_rng(40 + t))
            lam = 0.6
            logits, _, cache = forward(m, xb, "train")
            p0 = softmax(logits)
            _, dscores = aad_loss(p0, bidx, bank, lam, acfg, backgrounds=bgs)
            g = backward(m, cache, softmax_score_grad(p0, dscores))

            def aad_value():
                p = softmax(forward(m, xb, "train")[0])
                return aad_loss(p, bidx, bank, lam, acfg, backgrounds=bgs)[0]

            worst = max(worst, check(aad_value, g, m))

            # composite objective: entropy+diversity, pseudo-label CE, mixup CE
            m = base.copy()
            xm, tm, _ = mixup_batch(xb, targets, 0.3, make_rng(70 + t), lam=0.6)

            def composite_parts(model):
                lg, _, cache_b = forward(model, xb, "train")
                v_im, d_im = im_loss(lg)
                v_ce, d_ce = cross_entropy(lg, targets)
                lm, _, cache_m = forward(model, xm, "train")
                v_mx, d_mx = cross_entropy(lm, tm)
                value = v_im + 0.3 * v_ce + 1.0 * v_mx
                return value, (cache_b, d_im, d_ce, cache_m, d_mx)

            _, (cache_b, d_im, d_ce, cache_m, d_mx) = composite_parts(m)
            g = backward(m, cache_b, d_im + 0.3 * d_ce)
            g_mix = backward(m, cache_m, d_mx)
            for k in g:
                g[k] = g[k] + g_mix[k]
            worst = max(worst, check(lambda: composite_parts(m)[0], g, m))
        assert worst < FD_TOL, f"worst relative gradient gap {worst:.2e}"


def test_02_cosine_kmeans_objective_is_monotone_and_terminates():
    with criterion(2, "cosine k-means objective never decreases", 10.0):
        for i in range(100):
            rng = make_rng(2000 + i)
            n = int(rng.integers(20, 501))
            d = int(rng.integers(2, 17))
            c = int(rng.integers(2, 9))
            feats = rng.normal(size=(n, d))
            labels = np.concatenate([np.arange(c),
                                     rng.integers(0, c, n - c)]).astype(np.int64)
            init = class_prototypes(feats, labels, c)
            _, assign, trace = spherical_kmeans(feats, init)
            assert trace.size >= 1
            assert trace.size <= 100, "did not terminate within the iteration cap"
            assert np.all(np.diff(trace) >= -1e-9), \
                f"instance {i}: objective decreased"
            assert assign.shape == (n,)


def test_03_soft_prototypes_match_brute_force():
    with criterion(3, "soft class prototypes match a brute-force loop", 5.0):
        for i in range(50):
            rng = make_rng(3000 + i)
            d = int(rng.integers(2, 9))
            c = int(rng.integers(2, 6))
            h = int(rng.integers(4, 11))
            n = int(rng.integers(10, 61))
            # gelu: strictly nonzero bottleneck rows, as pseudo-labeling requires
            model = tiny_model(seed=i, d=d, h=h, c=c, act="gelu",
                               norm="layernorm" if i % 2 else "batchnorm")
            x = rng.normal(size=(n, d))
            _, protos = shot_pseudo_labels(model, x, kmeans_rounds=0)

            logits, feats, _ = forward(model, x, "eval")
            probs = np.exp(log_softmax(logits))
            centers = np.zeros((c, feats.shape[1]))
            for cc in range(c):
                num = np.zeros(feats.shape[1])
                mass = 0.0
                for j in range(n):
                    num += probs[j, cc] * feats[j]
                    mass += probs[j, cc]
                centers[cc] = num / mass
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)
            assert float(np.max(np.abs(centers - protos.centers))) < 1e-12


def test_04_shard_decomposition_per_sample_exact_batch_terms_not():
    with criterion(4, "shard-averaged gradients: per-sample terms exact, "
                      "batch terms diverge", 10.0):
        _, tgt = gen_gaussian_pair(5, 10, 40, 4.0, ShiftSpec.identity(10),
                                   make_rng(8))
        model = init_head(HeadConfig(10, 5, 16, "layernorm", seed=0))
        order = np.argsort(tgt.labels, kind="stable")
        batch = tgt.features[order[np.linspace(0, tgt.n - 1, 32).astype(int)]]

        ent = lambda rows, logits: entropy_loss(logits)
        div = lambda rows, logits: diversity_loss(logits)
        for w in (2, 4, 8, 16):
            cell = parse_cell(f"{w}x{32 // w}")
            gap_ent = _rel_gap(sharded_gradient(model, batch, ent, cell),
                               centralized_gradient(model, batch, ent))
            assert gap_ent < 1e-9, f"W={w}: per-sample term gap {gap_ent:.2e}"

            gap_div = _rel_gap(sharded_gradient(model, batch, div, cell),
                               centralized_gradient(model, batch, div))
            assert gap_div > 1e-3, f"W={w}: skewed batch-term gap {gap_div:.2e}"

            rep = np.tile(batch[:32 // w], (w, 1))
            gap_rep = _rel_gap(sharded_gradient(model, rep, div, cell),
                               centralized_gradient(model, rep, div))
            assert gap_rep < 1e-9, f"W={w}: replicated gap {gap_rep:.2e}"


def test_05_sharding_hurts_neighbor_methods_more_than_prototype_method():
    with criterion(5, "16x4 sharding degrades neighbor methods by 2+ points, "
                      "soft-prototype method by at most half the worst", 600.0):
        from sfuda.distsim import run_distributed_grid
        rng = make_rng(11)
        d = 12
        shift = replace(ShiftSpec.identity(d), mean_shift=np.full(d, 0.7),
                        per_feature_scale=np.full(d, 1.4))
        src, tgt = gen_gaussian_pair(8, d, 40, 3.0, shift, rng)
        grid = (DistConfig(1, 64), DistConfig(16, 4))
        seeds = (0, 1, 2)
        drops = {}
        for name, cfg in (("SHOT", ShotConfig(epochs=12, learning_rate=0.1)),
                          ("NRC", NrcConfig(epochs=12, learning_rate=0.1)),
                          ("AAD", AadConfig(epochs=12, learning_rate=0.1))):
            res = run_distributed_grid(name, src, tgt, grid, seeds,
                                       norm_kind="batchnorm", hidden_dim=32,
                                       method_cfg=cfg)
            by_cell = {row["cell"]: row["mean"] for row in res.rows}
            drops[name] = by_cell["1x64"] - by_cell["16x4"]
        assert drops["AAD"] >= 2.0, f"AAD drop {drops['AAD']:.2f} < 2"
        assert drops["NRC"] >= 2.0, f"NRC drop {drops['NRC']:.2f} < 2"
        assert drops["SHOT"] <= 0.5 * drops["AAD"], \
            f"SHOT drop {drops['SHOT']:.2f} not under half of AAD's {drops['AAD']:.2f}"


def test_06_batchnorm_fails_under_affine_shift_and_recalibration_recovers():
    with criterion(6, "running-stat heads fail under per-feature affine shift; "
                      "stat recalibration recovers", 600.0):
        d = 10
        off = make_rng(99).normal(0.0, 2.5, size=d)
        shift = replace(ShiftSpec.identity(d), per_feature_scale=np.full(d, 1.6),
                        per_feature_offset=off)
        src, tgt = gen_gaussian_pair(5, d, 50, 3.0, shift, make_rng(5))

        failures = {"batchnorm": 0, "layernorm": 0}
        recovered = 0
        bn_failed = 0
        for seed in range(10):
            for norm in ("batchnorm", "layernorm"):
                cfg = HeadConfig(src.d, src.num_classes, 32, norm,
                                 seed=derive_seed(seed, "head-init"))
                tc = replace(TrainConfig(),
                             seed=derive_seed(seed, "first-transfer"))
                lp = train_supervised(init_head(cfg), src, "classifier_only", tc)
                base = evaluate(lp, tgt.features, tgt.labels)
                ft = train_supervised(init_head(cfg), src, "full", tc)
                acc = evaluate(ft, tgt.features, tgt.labels)
                if acc < base:
                    failures[norm] += 1
                if norm == "batchnorm" and acc < base:
                    bn_failed += 1
                    fixed = evaluate(adabn(ft, tgt.features),
                                     tgt.features, tgt.labels)
                    if fixed - acc >= 0.5 * (base - acc):
                        recovered += 1
        assert failures["batchnorm"] > failures["layernorm"], \
            f"failure rates: {failures}"
        assert recovered >= min(7, bn_failed), \
            f"recalibration recovered only {recovered} of {bn_failed} failed runs"


def test_07_adaptation_beats_the_frozen_classifier_baseline():
    with criterion(7, "every adaptation route clears the no-adaptation "
                      "baseline on shifted pairs", 900.0):
        shot_cfg = ShotConfig(epochs=25, batch_size=32, learning_rate=0.05)
        pcsr_cfg = PcsrConfig(epochs=25, batch_size=32, learning_rate=0.05)
        routes = {"SCA": [], "SHOT": [], "FT-SHOT": [], "PCSR": []}
        for i in range(5):
            d = 10
            shift = replace(ShiftSpec.identity(d),
                            rotation_angle=0.35, mean_shift=np.full(d, 0.5),
                            per_feature_scale=np.full(d, 1.2))
            src, tgt = gen_gaussian_pair(5, d, 60, 3.0, shift, make_rng(100 + i))
            common = dict(target=tgt, source=src, norm_kind="layernorm",
                          hidden_dim=32, seed=i)
            routes["SCA"].append(run_task(
                TaskSpec(task="SFUDA", method="SCA", **common)).delta)
            routes["SHOT"].append(run_task(
                TaskSpec(task="SFUDA", method="SHOT", method_config=shot_cfg,
                         **common)).delta)
            routes["FT-SHOT"].append(run_task(
                TaskSpec(task="FT-SFUDA", method="SHOT", method_config=shot_cfg,
                         **common)).delta)
            routes["PCSR"].append(run_task(
                TaskSpec(task="SFUDA", method="PCSR", method_config=pcsr_cfg,
                         **common)).delta)
        means = {k: float(np.mean(v)) for k, v in routes.items()}
        for k, m in means.items():
            assert m > 0.0, f"{k} mean delta {m:.2f} not positive ({routes[k]})"


def test_08_regression_stats_recover_planted_effects():
    with criterion(8, "regression fits: exact hand values, planted recovery, "
                      "group-aware fit wins under noise", 10.0):
        assert adjusted_r2(1.0, 30, 3) == 1.0
        assert adjusted_r2(0.5, 12, 1) == 1.0 - 0.5 * 11 / 10
        assert adjusted_r2(0.0, 11, 1) == 1.0 - 1.0 * 10 / 9

        def table(top1, pre, acc):
            rows = [ResultsRow(f"b{i}", float(t), int(p), "T", float(a))
                    for i, (t, p, a) in enumerate(zip(top1, pre, acc))]
            return ResultsTable(rows)

        top1 = np.tile(np.linspace(52.0, 88.0, 12), 2)
        pre = np.repeat([0.0, 1.0], 12)
        clean = 10.0 + 0.5 * top1 + 8.0 * pre + 0.12 * pre * top1
        fit = fit_multilinear(table(top1, pre, clean))
        assert abs(fit.m - 0.5) < 1e-8 and abs(fit.q - 10.0) < 1e-8
        assert abs(fit.delta_q - 8.0) < 1e-8 and abs(fit.delta_m - 0.12) < 1e-8

        wins = 0
        for trial in range(100):
            rng = make_rng(4000 + trial)
            noisy = 10.0 + 0.5 * top1 + 8.0 * pre + rng.normal(0.0, 1.0, top1.size)
            t = table(top1, pre, noisy)
            if fit_multilinear(t).adj_r2 > fit_linear(t).adj_r2:
                wins += 1
        assert wins >= 95, f"group-aware fit won only {wins}/100 trials"


def test_09_cli_runs_are_byte_reproducible(tmp_path):
    with criterion(9, "identical configs produce byte-identical result files", 60.0):
        cfg = {
            "data": {"generate": {"num_classes": 3, "dim": 5, "n_per_class": 12,
                                  "class_sep": 3.0, "seed": 0,
                                  "shift": {"mean_shift": 0.3}}},
            "tasks": ["LP-ODG", "SFUDA"],
            "methods": ["SHOT"],
            "method_configs": {"SHOT": {"epochs": 2}},
            "head": {"hidden_dim": 8},
            "train": {"epochs": 3},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = cli_main(["suite", "--config", str(cfg_path),
                             "--seeds", "0,1", "--out", str(out)])
            assert code == 0
        for name in ("records.csv", "aggregates.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_10_special_cases_collapse_to_the_simpler_method_exactly():
    with criterion(10, "structural reductions are exact", 300.0):
        # single-center, zero-mixup polycentric run == soft-prototype run
        rng = make_rng(31)
        src, tgt = gen_gaussian_pair(3, 6, 30, 5.0, ShiftSpec.identity(6), rng)
        head_cfg = HeadConfig(6, 3, 12, "layernorm",
                              seed=derive_seed(0, "head-init"))
        tc = replace(TrainConfig(), seed=derive_seed(0, "first-transfer"))
        first = train_supervised(init_head(head_cfg), src, "classifier_only", tc)
        seed = derive_seed(0, "adapt")
        a = pcsr_adapt(first, tgt.features,
                       PcsrConfig(M=1, mixup_weight=0.0, epochs=4,
                                  batch_size=32, learning_rate=0.05, seed=seed))
        b = shot_adapt(first, tgt.features,
                       ShotConfig(epochs=4, batch_size=32, learning_rate=0.05,
                                  seed=seed))
        for k, arr in a.params().items():
            assert np.array_equal(arr, b.params()[k]), f"param {k} differs"

        # one-worker sharding == the centralized gradient, bitwise
        model = init_head(HeadConfig(6, 3, 10, "layernorm", seed=2))
        batch = tgt.features[:24]
        for obj in (lambda r, lg: entropy_loss(lg),
                    lambda r, lg: diversity_loss(lg),
                    lambda r, lg: im_loss(lg)):
            g1 = sharded_gradient(model, batch, obj, DistConfig(1, 24))
            g0 = centralized_gradient(model, batch, obj)
            for k in g0:
                assert np.array_equal(g1[k], g0[k])

        # full-affinity neighbor loss ignores the reciprocity flags
        bank = build_bank(model, tgt.features[:20])
        p = softmax(forward(model, tgt.features[:8], "eval")[0])
        bidx = np.arange(8)
        cfg_r1 = NrcConfig(K=3, KK=2, r=1.0)
        v_none, g_none = nrc_loss(p, bidx, bank, cfg_r1)
        for override in (np.ones((8, 3), dtype=bool),
                         np.zeros((8, 3), dtype=bool)):
            v, g = nrc_loss(p, bidx, bank, cfg_r1, reciprocal_override=override)
            assert v == v_none
            assert np.array_equal(g, g_none)
