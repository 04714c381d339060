"""Reference computations that tests score the pipeline against and that
no pipeline path runs: AdaBN statistic transfer, and the centralized and
per-shard gradients a sharded step is checked against."""
import numpy as np

from sfuda.core import as_compute
from sfuda.engine import DistConfig, sharded_step
from sfuda.head import HeadModel, backward, forward


def adabn(model: HeadModel, target_features: np.ndarray) -> HeadModel:
    """Swap batchnorm running statistics for the target set's pre-norm moments."""
    if model.norm.kind != "batchnorm":
        raise ValueError("statistic transfer needs a batchnorm head")
    x = as_compute(target_features)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError("target features have the wrong width")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 target samples")
    z = x @ model.bottleneck_weight + model.bottleneck_bias
    out = model.copy(x.dtype)
    out.norm.running_mean = z.mean(axis=0)
    out.norm.running_var = z.var(axis=0, ddof=1)
    out.bump_version()
    return out


def centralized_gradient(model: HeadModel, batch: np.ndarray, objective,
                         ) -> dict[str, np.ndarray]:
    """Reference gradient: one train-mode forward over the whole batch.

    objective(rows, logits) -> (value, dlogits). Operates on a private copy,
    so the caller's model (and its running statistics) stay put.
    """
    batch = as_compute(batch)
    work = model.copy(batch.dtype)
    rows = np.arange(batch.shape[0])
    logits, _, cache = forward(work, batch, "train")
    _, dl = objective(rows, logits)
    return backward(work, cache, dl)


def sharded_gradient(model: HeadModel, batch: np.ndarray, objective,
                     cfg: DistConfig) -> dict[str, np.ndarray]:
    """Average of per-shard gradients under cfg.workers contiguous shards.

    objective(rows, logits) -> (value, dlogits), as in centralized_gradient,
    is called once per shard on that shard's (m,) rows and (m, C) logits, so
    batch-coupled terms (the diversity penalty, batchnorm statistics) become
    shard-local.
    """
    batch = as_compute(batch)
    work = model.copy(batch.dtype)
    shards = np.arange(batch.shape[0]).reshape(cfg.workers, -1)

    def stacked(rows, logits):
        # objective sees one (m, C) shard at a time, in shard order
        parts = [objective(r, lg) for r, lg in zip(rows, logits)]
        return np.array([v for v, _ in parts]), np.stack([dl for _, dl in parts])

    _, grads, _ = sharded_step(work, batch, shards, stacked, cfg.sync_batchnorm)
    return grads
