"""Shared helpers: finite-difference oracles, tiny model builders, and
reference loops that the optimized pipeline is compared against."""
import numpy as np

import sfuda.sca
from sfuda.core import derive_rng, l2_normalize_rows
from sfuda.head import (HeadConfig, _classifier_grads, backward, cross_entropy, forward,
                        init_head, run_epochs, smoothed_targets)

FD_STEP = 1e-5
FD_TOL = 1e-4


def max_rel_err(a, b):
    """Worst elementwise relative gap with an absolute floor of 1e-6."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def tiny_model(seed=0, d=5, h=6, c=3, norm="batchnorm", act="relu"):
    return init_head(HeadConfig(d, c, hidden_dim=h, norm_kind=norm,
                                activation=act, seed=seed))


def fd_param_grads(model, loss_fn, names=None, step=FD_STEP):
    """Central differences of loss_fn() over the live parameter arrays.

    loss_fn takes no arguments and must rerun the forward pass itself.
    Batchnorm running statistics drift during the probes is rolled back.
    """
    params = model.params()
    if names is None:
        names = list(params)
    saved_stats = None
    if model.norm.kind == "batchnorm":
        saved_stats = (model.norm.running_mean.copy(),
                       model.norm.running_var.copy())
    grads = {}
    for name in names:
        arr = params[name]
        g = np.zeros_like(arr)
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_fn()
            flat[i] = orig - step
            lo = loss_fn()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * step)
        grads[name] = g
    if saved_stats is not None:
        model.norm.running_mean = saved_stats[0]
        model.norm.running_var = saved_stats[1]
    return grads


def grad_gap(analytic, numeric, names=None):
    if names is None:
        names = list(numeric)
    return max(max_rel_err(analytic[k], numeric[k]) for k in names)


def shard_loop_step(model, x, shards, objective, sync_batchnorm):
    """Reference data-parallel step: one forward and backward per shard (one
    pooled pass when batchnorm statistics are synced), gradients added in
    shard order and averaged."""
    w = len(shards)
    if sync_batchnorm and w > 1 and model.norm.kind == "batchnorm":
        logits, feats, cache = forward(model, x[np.concatenate(shards)], "train")
        dl, values, outputs, ofs = np.empty_like(logits), [], [], 0
        for wi, sh in enumerate(shards):
            v, dl[ofs:ofs + len(sh)] = objective(wi, sh, logits[ofs:ofs + len(sh)])
            values.append(v)
            outputs.append((sh, logits[ofs:ofs + len(sh)], feats[ofs:ofs + len(sh)]))
            ofs += len(sh)
        return float(np.mean(values)), backward(model, cache, dl / w), outputs
    gsum, values, outputs = None, [], []
    for wi, sh in enumerate(shards):
        logits, feats, cache = forward(model, x[sh], "train")
        v, dl = objective(wi, sh, logits)
        g = backward(model, cache, dl)
        values.append(v)
        outputs.append((sh, logits, feats))
        if gsum is None:
            gsum = g
        else:
            for k in gsum:
                gsum[k] += g[k]
    return float(np.mean(values)), {k: v / w for k, v in gsum.items()}, outputs


def full_recentering_kmeans(features, init):
    """Reference spherical K-Means: every pass recenters every cluster, and
    an exit at the pass limit reassigns the rows to the final centers.
    Returns (centers, assignments, trace) as arrays."""
    feats = l2_normalize_rows(features)
    centers = init.centers.copy()
    n = feats.shape[0]
    trace, prev = [], None
    for _ in range(sfuda.sca._KMEANS_MAX_ITERS):
        sims = feats @ centers.T
        assign = sims.argmax(axis=1).astype(np.int64)
        trace.append(float(sims[np.arange(n), assign].sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        if len(trace) >= 2 and trace[-1] - trace[-2] < sfuda.sca._KMEANS_TOL:
            break
        for c in range(centers.shape[0]):
            members = feats[assign == c]
            if members.shape[0]:
                m = members.mean(axis=0)
                norm = np.linalg.norm(m)
                if norm > 0.0:
                    centers[c] = m / norm
        prev = assign
    else:
        assign = (feats @ centers.T).argmax(axis=1).astype(np.int64)
    return centers, assign, np.asarray(trace)


def per_batch_transfer(model, data, cfg):
    """Reference classifier-only transfer: one eval-mode forward of each
    batch, then the classifier gradients, in the one SGD loop."""
    model = model.copy()
    targets = smoothed_targets(data.labels, data.num_classes, cfg.label_smoothing)

    def step_grads(rows, _step):
        logits, feats, _ = forward(model, data.features[rows], "eval")
        loss, dlogits = cross_entropy(logits, targets[rows])
        return loss, _classifier_grads(feats, dlogits)

    run_epochs(model, data.n, min(cfg.batch_size, data.n), cfg, step_grads,
               rng=derive_rng(cfg.seed, "train-shuffle"), schedule=cfg.lr_schedule,
               grad_clip=cfg.grad_clip)
    return model
