"""The worker-layout grid of `sfuda distgrid`: its cells (W workers of B
rows each), one SFUDA spec per (method, cell) run as one suite, and
run_distributed_grid for one method. The sharded training itself is
engine.sharded_step."""

from __future__ import annotations

from dataclasses import dataclass

from .data import DomainDataset
from .engine import DEFAULT_GRID, DistConfig
from .harness import SFUDA_TASK, TaskSpec, mean_std, run_suite, spec_groups
from .head import TrainConfig


def parse_cell(label: str) -> DistConfig:
    """'16x4' -> DistConfig(workers=16, local_batch=4)."""
    try:
        w, b = label.lower().split("x")
        return DistConfig(int(w), int(b))
    except (ValueError, TypeError):
        raise ValueError(f"bad grid cell {label!r}, expected WxB like 16x4") from None


def cell_columns(cell: DistConfig) -> dict:
    """A grid cell's key columns in the distgrid tables."""
    return {"cell": cell.label, "workers": cell.workers, "local_batch": cell.local_batch}


@dataclass
class GridResult:
    method: str
    rows: list[dict]


def check_cells(cells) -> None:
    """Raises unless the grid cells share one global batch size, so that
    every cell adapts with the same batch."""
    if len({c.global_batch for c in cells}) != 1:
        raise ValueError("grid cells must share one global batch size")


def grid_specs(methods, source: DomainDataset, target: DomainDataset, cells,
               method_cfgs: dict | None = None, **spec_kw) -> list[TaskSpec]:
    """One SFUDA spec per (method, cell), method-major; a cell's global batch
    replaces the batch_size of method_cfgs, and spec_kw holds the other
    TaskSpec settings. Run in one suite, every method and cell of a seed
    starts from one classifier-only transfer."""
    check_cells(cells)
    return [TaskSpec(SFUDA_TASK, target, source, method, dist=cell,
                     method_config=(method_cfgs or {}).get(method), **spec_kw)
            for method in methods for cell in cells]


def run_distributed_grid(method: str, source: DomainDataset, target: DomainDataset,
                         grid=DEFAULT_GRID, seeds=(0,), norm_kind: str = "batchnorm",
                         activation: str = "relu", hidden_dim: int = 256,
                         train_cfg: TrainConfig | None = None,
                         method_cfg=None) -> GridResult:
    """The grid of one method: per cell, its key columns, the transductive
    accuracy of each seed, their mean and sample std. Raises when any of its
    records raised."""
    cells, seeds = list(grid), list(seeds)
    specs = grid_specs([method], source, target, cells, {method: method_cfg},
                       norm_kind=norm_kind, activation=activation,
                       hidden_dim=hidden_dim, train=train_cfg)
    groups = spec_groups(run_suite(specs, seeds), len(seeds))
    keys = [cell_columns(cell) for cell in cells]
    errors = [f"{r.method} {key['cell']} seed {r.seed}: {r.error}"
              for key, group in zip(keys, groups) for r in group if r.error]
    if errors:
        raise RuntimeError(f"{len(errors)} grid record(s) raised; first: {errors[0]}")
    return GridResult(method, [{**key, "mean": m, "std": s,
                                "accuracies": [r.accuracy for r in g]}
                               for key, g, (m, s, _) in zip(keys, groups, map(mean_std, groups))])
