"""Simulated data parallelism for the gradient-based adaptation loops:
contiguous worker shards of each batch and shard-averaged gradients. The W=1
path is the plain single-worker step; the loop itself is head.run_epochs."""

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
                 objective, sync_batchnorm: bool = False):
    """One simulated data-parallel step.

    objective(worker, rows, logits) -> (value, dlogits) sees only its shard,
    so any batch-level statistic inside it is shard-local. Each worker runs
    its own train-mode forward (shard-local batch statistics) unless
    sync_batchnorm pools them; gradients are averaged unweighted.

    Returns (mean objective value, averaged gradient dict, per-shard outputs)
    where outputs is a list of (rows, logits, feats) from the forwards.
    """
    w = len(shards)
    if sync_batchnorm and w > 1 and model.norm.kind == "batchnorm":
        rows_all = np.concatenate(shards)
        logits, feats, cache = forward(model, x[rows_all], "train")
        dl = np.empty_like(logits)
        values = []
        outputs = []
        ofs = 0
        for wi, sh in enumerate(shards):
            m = len(sh)
            v, d = objective(wi, sh, logits[ofs:ofs + m])
            dl[ofs:ofs + m] = d
            values.append(v)
            outputs.append((sh, logits[ofs:ofs + m], feats[ofs:ofs + m]))
            ofs += m
        # backward is linear in dlogits, so one pass gives the shard average
        grads = backward(model, cache, dl / w)
        return float(np.mean(values)), grads, outputs

    gsum: dict[str, np.ndarray] | None = None
    values = []
    outputs = []
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
    grads = {k: v / w for k, v in gsum.items()}
    return float(np.mean(values)), grads, outputs


def effective_batch(n: int, batch_size: int, workers: int) -> int:
    """Largest usable batch: at most n, and an exact multiple of workers."""
    bs = min(batch_size, n)
    bs -= bs % workers
    if bs < workers:
        raise ValueError(f"cannot split batches of {bs} across {workers} workers")
    return bs


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
