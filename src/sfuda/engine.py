"""Simulated data parallelism for the gradient-based adaptation loops:
contiguous worker shards of each batch, one stacked objective call for all
of them, and shard-averaged gradients. The W=1 path is the plain
single-worker step; the loop itself is head.run_epochs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .head import HeadModel, backward, forward

@dataclass(frozen=True)
class DistConfig:
    """Simulated data-parallel geometry: workers x local_batch samples."""

    workers: int = 1
    local_batch: int = 64
    sync_batchnorm: bool = False

    def __post_init__(self):
        if self.workers < 1 or self.local_batch < 1:
            raise ValueError("workers and local_batch must be positive")

    @property
    def global_batch(self) -> int:
        return self.workers * self.local_batch

    @property
    def label(self) -> str:
        return f"{self.workers}x{self.local_batch}"


DEFAULT_GRID = (DistConfig(1, 64), DistConfig(2, 32), DistConfig(4, 16),
                DistConfig(8, 8), DistConfig(16, 4))


def shard_rows(rows: np.ndarray, workers: int) -> list[np.ndarray]:
    """Contiguous equal shards of an already shuffled batch."""
    if len(rows) % workers:
        raise ValueError(f"batch of {len(rows)} does not split into {workers} shards")
    m = len(rows) // workers
    return [rows[w * m:(w + 1) * m] for w in range(workers)]


def sharded_step(model: HeadModel, x: np.ndarray, shards: list[np.ndarray],
                 objective, sync_batchnorm: bool = False, *, classifier: bool = True):
    """One simulated data-parallel step.

    The shards (equal in size, as shard_rows cuts them) are stacked: rows is
    (W, m) and logits (W, m, C), and objective(rows, logits) -> (values,
    dlogits) is called once for all workers. It must treat each leading index
    as its own batch, so any batch-level statistic inside it is shard-local,
    and return per-shard values (W,) and dlogits (W, m, C). Each worker
    normalizes with its own shard's batch statistics unless sync_batchnorm
    pools them; gradients are averaged unweighted.

    The workers share one train-mode forward and one backward over the
    stacked (W, m, d) input, which head.forward and head.backward treat as W
    separate batches, so the step equals W per-shard forwards, objective
    calls and backwards bit for bit. One worker, or pooled batchnorm
    statistics, take one plain (W*m, d) batch instead.

    Returns (mean objective value, averaged gradient dict, (rows, logits,
    feats)), the forward's outputs stacked as (W, m), (W, m, C), (W, m, h).
    With classifier False the dict holds BOTTLENECK_PARAMS only (see
    head.backward), for a caller that keeps the classifier frozen.
    """
    w = len(shards)
    m = len(shards[0])
    if any(len(sh) != m for sh in shards):
        raise ValueError("shards must have equal sizes")
    pooled = w == 1 or (sync_batchnorm and model.norm.kind == "batchnorm")
    rows = np.stack(shards)
    xb = x[rows.ravel()]
    logits, feats, cache = forward(model, xb if pooled else xb.reshape(w, m, -1), "train")
    logits, feats = logits.reshape(w, m, -1), feats.reshape(w, m, -1)
    values, dl = objective(rows, logits)
    if pooled:
        # backward is linear in dlogits, so one pass gives the shard average
        dl = dl.reshape(w * m, -1)
        grads = backward(model, cache, dl / w if w > 1 else dl, classifier=classifier)
    else:
        grads = {k: g / w for k, g in
                 backward(model, cache, dl, classifier=classifier).items()}
    return float(np.mean(values)), grads, (rows, logits, feats)


def effective_batch(n: int, batch_size: int, workers: int) -> int:
    """Largest usable batch: at most n, and an exact multiple of workers."""
    bs = min(batch_size, n)
    if bs < workers:
        raise ValueError(f"cannot split {bs} rows across {workers} workers")
    return bs - bs % workers


def adapt_layout(model: HeadModel, n: int, batch_size: int,
                 dist: DistConfig | None) -> tuple[int, DistConfig]:
    """An adapter's global batch on n rows and its worker layout (one worker
    when dist is None); rejects shards too small for batchnorm statistics."""
    dist = dist if dist is not None else DistConfig()
    bs = effective_batch(n, batch_size, dist.workers)
    if (model.norm.kind == "batchnorm" and bs // dist.workers < 2
            and not dist.sync_batchnorm):
        raise ValueError("shard size < 2 is invalid with a batchnorm head")
    return bs, dist
