"""Single-process simulation of data-parallel training: a global batch is cut
into contiguous worker shards, each worker evaluates the full objective on its
shard alone (batch-level statistics included), and the parameter update uses
the unweighted average of shard gradients. This reproduces the quiet change of
objective that sharding inflicts on batch-coupled loss terms."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import derive_seed
from .data import DomainDataset
from .engine import DEFAULT_GRID, DistConfig, shard_rows, sharded_step
from .harness import ADAPT_METHODS, TaskSpec, TransferMemo, first_transfer
from .head import HeadModel, TrainConfig, backward, evaluate, forward

__all__ = ["DistConfig", "DEFAULT_GRID", "parse_cell",
           "centralized_gradient", "sharded_gradient", "run_distributed_grid",
           "GridResult"]


def parse_cell(label: str) -> DistConfig:
    """'16x4' -> DistConfig(workers=16, local_batch=4)."""
    try:
        w, b = label.lower().split("x")
        return DistConfig(int(w), int(b))
    except (ValueError, TypeError):
        raise ValueError(f"bad grid cell {label!r}, expected WxB like 16x4") from None


def centralized_gradient(model: HeadModel, batch: np.ndarray, objective,
                         ) -> dict[str, np.ndarray]:
    """Reference gradient: one train-mode forward over the whole batch.

    objective(rows, logits) -> (value, dlogits). Operates on a private copy,
    so the caller's model (and its running statistics) stay put.
    """
    work = model.copy()
    batch = np.asarray(batch, dtype=np.float64)
    rows = np.arange(batch.shape[0])
    logits, _, cache = forward(work, batch, "train")
    _, dl = objective(rows, logits)
    return backward(work, cache, dl)


def sharded_gradient(model: HeadModel, batch: np.ndarray, objective,
                     cfg: DistConfig) -> dict[str, np.ndarray]:
    """Average of per-shard gradients under cfg.workers contiguous shards.

    Each shard evaluates objective on its own rows, so batch-coupled terms
    (the diversity penalty, batchnorm statistics) become shard-local.
    """
    work = model.copy()
    batch = np.asarray(batch, dtype=np.float64)
    rows = np.arange(batch.shape[0])
    shards = shard_rows(rows, cfg.workers)
    _, grads, _ = sharded_step(work, batch, shards,
                               lambda _w, sh, logits: objective(sh, logits),
                               cfg.sync_batchnorm)
    return grads


@dataclass
class GridResult:
    method: str
    rows: list[dict]


def run_distributed_grid(method: str, source: DomainDataset, target: DomainDataset,
                         grid=DEFAULT_GRID, seeds=(0,), norm_kind: str = "batchnorm",
                         activation: str = "relu", hidden_dim: int = 256,
                         train_cfg: TrainConfig | None = None,
                         method_cfg=None, memo: TransferMemo | None = None,
                         ) -> GridResult:
    """Classifier-only source transfer, then one adaptation per (cell, seed)
    with sharded gradients; transductive accuracy per cell, mean over seeds.
    The transfer is the SFUDA record's, taken from memo (a fresh one when
    None), so grids of several methods can share it.
    """
    if method == "SCA":
        raise ValueError("SCA has no gradient loop; its result is invariant to "
                         "the simulated worker layout")
    if method not in ADAPT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if target.labels is None:
        raise ValueError("target labels are required to score the grid")
    cells = list(grid)
    if len({c.global_batch for c in cells}) != 1:
        raise ValueError("grid cells must share one global batch size")
    cfg_cls, adapt_fn = ADAPT_METHODS[method]
    base_cfg = method_cfg if method_cfg is not None else cfg_cls()
    memo = memo if memo is not None else TransferMemo()

    accs: dict[str, list[float]] = {c.label: [] for c in cells}
    for seed in seeds:
        spec = TaskSpec("SFUDA", target, source, method, norm_kind=norm_kind,
                        activation=activation, hidden_dim=hidden_dim, seed=seed,
                        train=train_cfg)
        lp = first_transfer(spec, "classifier_only", source, memo)
        for cell in cells:
            mcfg = replace(base_cfg, batch_size=cell.global_batch,
                           seed=derive_seed(seed, "adapt"))
            adapted = adapt_fn(lp, target.features, mcfg, dist=cell)
            accs[cell.label].append(evaluate(adapted, target.features, target.labels))

    rows = []
    for cell in cells:
        vals = np.asarray(accs[cell.label])
        rows.append({
            "cell": cell.label,
            "workers": cell.workers,
            "local_batch": cell.local_batch,
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            "accuracies": [float(v) for v in vals],
        })
    return GridResult(method, rows)
