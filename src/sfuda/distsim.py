"""Single-process simulation of data-parallel training: a global batch is cut
into contiguous worker shards, each worker evaluates the full objective on its
shard alone (batch-level statistics included), and the parameter update uses
the unweighted average of shard gradients. This reproduces the quiet change of
objective that sharding inflicts on batch-coupled loss terms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DomainDataset
from .engine import DEFAULT_GRID, DistConfig, shard_rows, sharded_step
from .harness import ADAPT_METHODS, TaskSpec, run_suite  # noqa: F401 (re-exported)
from .head import HeadModel, TrainConfig, backward, forward

__all__ = ["DistConfig", "DEFAULT_GRID", "parse_cell",
           "centralized_gradient", "sharded_gradient", "run_distributed_grid",
           "run_distributed_grids", "GridResult"]


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

    objective(rows, logits) -> (value, dlogits), as in centralized_gradient,
    is called once per shard on that shard's (m,) rows and (m, C) logits, so
    batch-coupled terms (the diversity penalty, batchnorm statistics) become
    shard-local.
    """
    work = model.copy()
    batch = np.asarray(batch, dtype=np.float64)
    shards = shard_rows(np.arange(batch.shape[0]), cfg.workers)

    def stacked(rows, logits):
        # objective sees one (m, C) shard at a time, in shard order
        parts = [objective(r, lg) for r, lg in zip(rows, logits)]
        return np.array([v for v, _ in parts]), np.stack([dl for _, dl in parts])

    _, grads, _ = sharded_step(work, batch, shards, stacked, cfg.sync_batchnorm)
    return grads


@dataclass
class GridResult:
    method: str
    rows: list[dict]


def run_distributed_grids(methods, source: DomainDataset, target: DomainDataset,
                          grid=DEFAULT_GRID, seeds=(0,), norm_kind: str = "batchnorm",
                          activation: str = "relu", hidden_dim: int = 256,
                          train_cfg: TrainConfig | None = None,
                          method_cfgs: dict | None = None, jobs: int = 1,
                          ) -> tuple[list[GridResult], list[str]]:
    """One SFUDA record per (method, cell, seed), all in one `run_suite`, so
    every method and cell of a seed starts from one classifier-only transfer;
    a cell's global batch replaces the batch_size of method_cfgs. Returns one
    GridResult per method (transductive accuracy per cell, nan where a record
    raised) and one line per record that raised."""
    cells = list(grid)
    if len({c.global_batch for c in cells}) != 1:
        raise ValueError("grid cells must share one global batch size")
    specs = [TaskSpec("SFUDA", target, source, method, norm_kind=norm_kind,
                      activation=activation, hidden_dim=hidden_dim, train=train_cfg,
                      method_config=(method_cfgs or {}).get(method), dist=cell)
             for method in methods for cell in cells]
    seeds = list(seeds)
    records = iter(run_suite(specs, seeds, jobs).records)  # in spec order, seed-minor

    results, errors = [], []
    for method in methods:
        rows = []
        for cell in cells:
            group = [next(records) for _ in seeds]
            errors.extend(f"{method} {cell.label} seed {r.seed}: {r.error}"
                          for r in group if r.error is not None)
            vals = np.array([r.accuracy for r in group])
            rows.append({"cell": cell.label, "workers": cell.workers,
                         "local_batch": cell.local_batch, "mean": float(vals.mean()),
                         "std": float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
                         "accuracies": vals.tolist()})
        results.append(GridResult(method, rows))
    return results, errors


def run_distributed_grid(method: str, source: DomainDataset, target: DomainDataset,
                         grid=DEFAULT_GRID, seeds=(0,), norm_kind: str = "batchnorm",
                         activation: str = "relu", hidden_dim: int = 256,
                         train_cfg: TrainConfig | None = None,
                         method_cfg=None) -> GridResult:
    """The grid of one method; raises when any of its records raised."""
    results, errors = run_distributed_grids(
        [method], source, target, grid, seeds, norm_kind, activation, hidden_dim,
        train_cfg, {method: method_cfg})
    if errors:
        raise RuntimeError(f"{len(errors)} grid record(s) raised; first: {errors[0]}")
    return results[0]
