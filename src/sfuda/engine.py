"""Simulated data parallelism, and adapt, the loop of every gradient adapter:
a batch's worker shards are its (W, m) view, batch.reshape(W, -1), so shard w
holds the batch's w-th contiguous m rows; sharded_step covers every worker
with one stacked objective call and averages their gradients. The W=1 path
is the plain single-worker step; adapt drives head.run_epochs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Section, as_compute, derive_rng, positive
from .head import HeadModel, LoopConfig, backward, forward, run_epochs

@dataclass(frozen=True)
class DistConfig(Section):
    """Simulated data-parallel geometry: workers x local_batch samples."""

    workers: int = positive(1)
    local_batch: int = positive(64)
    sync_batchnorm: bool = False

    @property
    def global_batch(self) -> int:
        return self.workers * self.local_batch

    @property
    def label(self) -> str:
        return f"{self.workers}x{self.local_batch}"


DEFAULT_GRID = (DistConfig(1, 64), DistConfig(2, 32), DistConfig(4, 16),
                DistConfig(8, 8), DistConfig(16, 4))


def sharded_step(model: HeadModel, x: np.ndarray, shards: np.ndarray,
                 objective, sync_batchnorm: bool = False, *, classifier: bool = True):
    """One simulated data-parallel step on shards, a (W, m) array of row
    indices into x, one row per worker.

    objective(shards, logits) -> (values, dlogits) is called once for all
    workers, with logits (W, m, C). It must treat each leading index
    as its own batch, so any batch-level statistic inside it is shard-local,
    and return per-shard values (W,) and dlogits (W, m, C). Each worker
    normalizes with its own shard's batch statistics unless sync_batchnorm
    pools them; gradients are averaged unweighted.

    The workers share one train-mode forward and one backward over the
    stacked (W, m, d) input, which head.forward and head.backward treat as W
    separate batches, so the step equals W per-shard forwards, objective
    calls and backwards bit for bit. One worker, or pooled batchnorm
    statistics, take one plain (W*m, d) batch instead.

    Returns (mean objective value, averaged gradient dict, (shards, logits,
    feats)), the forward's outputs stacked as (W, m, C) and (W, m, h).
    With classifier False the dict holds BOTTLENECK_PARAMS only (see
    head.backward), for a caller that keeps the classifier frozen.
    """
    w, m = shards.shape
    pooled = w == 1 or (sync_batchnorm and model.norm.kind == "batchnorm")
    xb = x[shards.ravel()]
    logits, feats, cache = forward(model, xb if pooled else xb.reshape(w, m, -1), "train")
    logits, feats = logits.reshape(w, m, -1), feats.reshape(w, m, -1)
    values, dl = objective(shards, logits)
    if pooled:
        # backward is linear in dlogits, so one pass gives the shard average
        dl = dl.reshape(w * m, -1)
        grads = backward(model, cache, dl / w if w > 1 else dl, classifier=classifier)
    else:
        grads = {k: g / w for k, g in
                 backward(model, cache, dl, classifier=classifier).items()}
    return float(np.mean(values)), grads, (shards, logits, feats)


def adapt(model: HeadModel, target_features: np.ndarray, cfg: LoopConfig,
          dist: DistConfig | None, start) -> HeadModel:
    """Train and return a copy of model on target_features in their compute
    dtype. The global batch is the largest multiple of dist's workers (one
    when dist is None) at most cfg.batch_size and the row count; forward
    raises at the first step on a 1-row batchnorm shard. start(model, x,
    dist) -> (step, epoch_hook) sets the adapter up on the copy and the cast
    x; step(shards, t) -> (loss, grads) trains on one batch's (W, m) shards,
    and epoch_hook, unless None, runs before each epoch."""
    x = as_compute(target_features)
    model = model.copy(x.dtype)
    dist = dist if dist is not None else DistConfig()
    bs = min(cfg.batch_size, x.shape[0])
    if bs < dist.workers:
        raise ValueError(f"cannot split {bs} rows across {dist.workers} workers")
    step, epoch_hook = start(model, x, dist)
    run_epochs(model, x.shape[0], bs - bs % dist.workers, cfg,
               lambda rows, t: step(rows.reshape(dist.workers, -1), t),
               rng=derive_rng(cfg.seed, "adapt-shuffle"), epoch_hook=epoch_hook)
    return model
