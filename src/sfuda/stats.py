"""Accuracy-vs-accuracy regressions over benchmark tables.

The linear model explains downstream accuracy from backbone top-1 alone; the
multilinear model lets supervised-pretraining membership shift both intercept
and slope. Fits go through scaled normal equations with an explicit rank
check, and quality is compared by adjusted R^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ResultsTable


@dataclass
class RegressionFit:
    m: float
    q: float
    delta_m: float
    delta_q: float
    r2: float
    adj_r2: float
    n: int
    p: int
    residuals: np.ndarray


def adjusted_r2(r2: float, n: int, p: int) -> float:
    """1 - (1 - R^2)(n - 1)/(n - p - 1); penalizes added predictors."""
    if n <= p + 1:
        raise ValueError(f"need n > p + 1, got n={n}, p={p}")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def _ols(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Column-scaled normal equations; raises on rank deficiency."""
    n, p_cols = design.shape
    scale = np.linalg.norm(design, axis=0)
    if np.any(scale == 0.0):
        raise ValueError("design matrix has a zero column")
    xs = design / scale
    if np.linalg.matrix_rank(xs) < p_cols:
        raise ValueError("rank-deficient design (is a regressor constant?)")
    beta = np.linalg.solve(xs.T @ xs, xs.T @ y) / scale
    resid = y - design @ beta
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("response is constant; R^2 undefined")
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot
    return beta, resid, r2


def _extract(table: ResultsTable, task: str | None):
    rows = table.filter_task(task).rows
    top1 = np.array([r.top1 for r in rows])
    pre = np.array([float(r.pretrain) for r in rows])
    acc = np.array([r.accuracy for r in rows])
    return top1, pre, acc


def fit_linear(table: ResultsTable, task: str | None = None) -> RegressionFit:
    """accuracy = m * top1 + q on the rows matching the task filter."""
    top1, _, acc = _extract(table, task)
    n = top1.size
    if n < 3:
        raise ValueError(f"need at least 3 rows, got {n}")
    design = np.column_stack([np.ones(n), top1])
    beta, resid, r2 = _ols(design, acc)
    return RegressionFit(m=float(beta[1]), q=float(beta[0]), delta_m=0.0,
                         delta_q=0.0, r2=r2, adj_r2=adjusted_r2(r2, n, 1),
                         n=n, p=1, residuals=resid)


def fit_multilinear(table: ResultsTable, task: str | None = None) -> RegressionFit:
    """accuracy = (m + delta_m * pre) * top1 + q + delta_q * pre.

    pre is the supervised-pretraining indicator; both groups must appear with
    at least 2 rows each for the interaction to be identifiable.
    """
    top1, pre, acc = _extract(table, task)
    n = top1.size
    for flag in (0.0, 1.0):
        if (pre == flag).sum() < 2:
            raise ValueError(f"need at least 2 rows with pretrain={int(flag)}")
    if n < 6:
        raise ValueError(f"need at least 6 rows, got {n}")
    design = np.column_stack([np.ones(n), top1, pre, pre * top1])
    beta, resid, r2 = _ols(design, acc)
    return RegressionFit(m=float(beta[1]), q=float(beta[0]),
                         delta_m=float(beta[3]), delta_q=float(beta[2]),
                         r2=r2, adj_r2=adjusted_r2(r2, n, 3),
                         n=n, p=3, residuals=resid)
