"""Neighborhood-driven adaptation: a detached memory bank of features and
scores, reciprocal-neighbor affinity (NRC), and attract/disperse with a
decaying dispersal weight (AAD). Both update every head parameter."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .core import (as_compute, derive_rng, knn_indices, l2_normalize_rows, nonnegative, positive,
                   rounding_tol, softmax)
from .engine import DistConfig, adapt, sharded_step
from .head import HeadModel, LoopConfig, forward, inverse_decay


@dataclass
class NrcConfig(LoopConfig):
    K: int = positive(3)
    KK: int = positive(3)
    r: float = nonnegative(0.1)


@dataclass
class AadConfig(LoopConfig):
    K: int = positive(3)
    beta: float = nonnegative(0.75)

    @property
    def background_size(self) -> int:
        return 2 * self.K


@dataclass
class MemoryBank:
    """Detached snapshot of the whole target set: unit features, simplex
    scores, and unit = l2_normalize_rows(features) in float64, the rows the
    neighbor ranking reads (it runs in float64, see core.knn_indices), which
    refresh keeps so row by row. Unit norms and simplex sums are checked to
    core.rounding_tol of the tensors' dtype."""

    features: np.ndarray
    scores: np.ndarray
    unit: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.features = as_compute(self.features)
        self.scores = as_compute(self.scores)
        if self.features.ndim != 2 or self.scores.ndim != 2:
            raise ValueError("bank tensors must be matrices")
        if self.features.shape[0] != self.scores.shape[0]:
            raise ValueError("bank row counts disagree")
        norm_gap = np.abs(np.linalg.norm(self.features, axis=1) - 1.0)
        if np.any(norm_gap > rounding_tol(self.features.dtype, self.features.shape[1])):
            raise ValueError("bank feature rows must be unit norm")
        sum_gap = np.abs(self.scores.sum(axis=1) - 1.0)
        if (np.any(self.scores < -1e-12)
                or np.any(sum_gap > rounding_tol(self.scores.dtype, self.scores.shape[1]))):
            raise ValueError("bank score rows must lie on the simplex")
        self.unit = l2_normalize_rows(self.features.astype(np.float64, copy=False))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def refresh(self, rows: np.ndarray, feats: np.ndarray, scores: np.ndarray) -> None:
        self.features[rows] = l2_normalize_rows(feats)
        # a row's norm reads that row alone, so this is the full
        # l2_normalize_rows(features) in float64 bit for bit
        refreshed = self.features[rows].astype(np.float64, copy=False)
        self.unit[rows] = l2_normalize_rows(refreshed)
        self.scores[rows] = scores


def build_bank(model: HeadModel, target_features: np.ndarray) -> MemoryBank:
    logits, feats, _ = forward(model, target_features, "eval")
    return MemoryBank(l2_normalize_rows(feats), softmax(logits))


def _bank_knn(bank: MemoryBank, k: int, knn: np.ndarray | None = None) -> np.ndarray:
    """The bank's top-k cosine neighbor table: the first k columns of a given
    wider table (knn_indices tables are prefixes of each other), or a fresh
    one when knn is None."""
    if knn is None:
        return knn_indices(bank.features, k, unit=bank.unit)
    knn = np.asarray(knn)
    if knn.ndim != 2 or knn.shape[0] != bank.n or knn.shape[1] < k:
        raise ValueError(f"neighbor table of shape {knn.shape} does not cover "
                         f"{bank.n} bank rows with {k} neighbors")
    return knn[:, :k]


def reciprocal_flags(bank: MemoryBank, k: int, rows: np.ndarray | None = None,
                     knn: np.ndarray | None = None) -> np.ndarray:
    """flags[..., i, j] is True when rows[..., i] is also among the k
    neighbors of its j-th neighbor (mutual nearness). rows, of any shape,
    defaults to the whole bank; knn is an optional precomputed neighbor
    table of the bank (see _bank_knn)."""
    nn = _bank_knn(bank, k, knn)
    rows = np.arange(bank.n) if rows is None else np.asarray(rows, dtype=np.int64)
    return (nn[nn[rows]] == rows[..., None, None]).any(axis=-1)


def _simplex_nll_grad(scores: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    # batch-marginal negative entropy, the diversity penalty on raw scores;
    # scores is (..., m, C), one batch marginal per leading index
    b = scores.shape[-2]
    pbar = scores.mean(axis=-2, keepdims=True)
    if np.any(pbar <= 0.0):
        raise ValueError("batch marginal has a zero class")
    log_pbar = np.log(pbar)
    value = (pbar * log_pbar).sum(axis=(-2, -1))
    grad = np.broadcast_to((log_pbar + 1.0) / b, scores.shape).copy()
    return value, grad


def _checked_batch(batch_scores: np.ndarray, batch_indices: np.ndarray, bank: MemoryBank):
    """A loss's checked (..., m, C) scores, their (..., m) bank rows, and m."""
    p = as_compute(batch_scores)
    bidx = np.asarray(batch_indices, dtype=np.int64)
    if bidx.shape != p.shape[:-1]:
        raise ValueError("batch_indices must match batch_scores rows")
    if bidx.size and (bidx.min() < 0 or bidx.max() >= bank.n):
        raise ValueError("batch index outside the bank")
    return p, bidx, p.shape[-2]


def nrc_loss(batch_scores: np.ndarray, batch_indices: np.ndarray, bank: MemoryBank,
             cfg: NrcConfig, self_anchor: np.ndarray | None = None,
             reciprocal_override: np.ndarray | None = None,
             knn: np.ndarray | None = None) -> tuple[float | np.ndarray, np.ndarray]:
    """Reciprocal-weighted affinity to bank neighbors, expanded-neighborhood
    affinity scaled by r, a stop-gradient self term, and the batch diversity
    penalty. Gradient is with respect to batch_scores; bank entries and the
    self anchor are constants. knn is the bank's neighbor table with at least
    max(K, KK) columns; it is computed here when absent.

    batch_scores is (..., m, C) and batch_indices (..., m): each leading
    index is one batch of m rows with its own diversity penalty, and the
    value has the leading shape (a float for one (m, C) batch).
    """
    p, bidx, b = _checked_batch(batch_scores, batch_indices, bank)
    if bank.n <= max(cfg.K, cfg.KK):
        raise ValueError("bank too small for the neighborhood sizes")
    anchor = p if self_anchor is None else as_compute(self_anchor)

    table = _bank_knn(bank, max(cfg.K, cfg.KK), knn)
    nn_kk = table[:, :cfg.KK]
    neigh = table[bidx, :cfg.K]                          # (..., b, K)
    if reciprocal_override is None:
        recip = reciprocal_flags(bank, cfg.K, bidx, table)
    else:
        recip = np.asarray(reciprocal_override, dtype=bool)
    aff = np.where(recip, 1.0, cfg.r).astype(p.dtype, copy=False)  # (..., b, K)

    s_neigh = bank.scores[neigh]                         # (..., b, K, C)
    s_aff = (aff[..., None] * s_neigh).sum(axis=-2)      # (..., b, C)
    s_exp = bank.scores[nn_kk[neigh]].sum(axis=(-3, -2))  # (..., b, C)

    pulled = s_aff + cfg.r * s_exp + anchor
    value = -(p * pulled).sum(axis=(-2, -1)) / b
    v_div, g_div = _simplex_nll_grad(p)
    return value + v_div, -pulled / b + g_div


def _floyd_choices(free: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """[rng.choice(f, size, replace=False) for f in free] from one
    rng.integers call, draw for draw, leaving rng where the loop would.

    For a small sample choice runs Floyd's algorithm: draws on [0, f-size+j]
    for j = 0..size-1, each keeping f-size+j when its value is already
    taken, then a shuffle with draws on [0, i] for i = size-1..1. Every one
    is the bounded draw integers makes per element of an array bound, in C
    order, so row r's draws are row r of a (b, 2*size-1) bound array.
    Below, draw j of every row is one contiguous row of the transpose."""
    b = len(free)
    tops = np.empty((max(2 * size - 1, 0), b), dtype=np.int64)
    tops[:size] = free - size + np.arange(size)[:, None]
    tops[size:] = np.arange(size - 1, 0, -1)[:, None]
    draws = rng.integers(0, tops.T, endpoint=True).T
    pos = draws[:size].copy()
    for j in range(1, size):
        np.copyto(pos[j], tops[j], where=(pos[:j] == pos[j]).any(axis=0))
    # pos is contiguous, so flat is a view: flat[j * b + r] is pos[j, r]
    flat, cols = pos.ravel(), np.arange(b)
    for c, i in enumerate(range(size - 1, 0, -1), start=size):
        at = draws[c] * b + cols
        swap = flat[at]
        flat[at] = pos[i]
        pos[i] = swap
    return pos.T


def sample_backgrounds(bank_n: int, neigh: np.ndarray, batch_indices: np.ndarray,
                       size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform non-neighbor sample per batch row, without replacement; neigh
    is (b, K) and batch_indices (b,).

    Each row draws positions in its ascending pool of allowed bank indices,
    the draw rng.choice(pool, size, replace=False) would make, row after row,
    and maps a position to its bank index by counting the blocked indices
    below it, so no pool is built. All rows draw through one rng.integers
    call (_floyd_choices). numpy's choice shuffles the tail of arange(f)
    instead when f > 10,000 and size > f // 50; if any row of a call is in
    that regime, the call draws with one rng.choice per row. With the
    default K=3 (size 6) no row is."""
    b, k = neigh.shape
    if bank_n <= k + size:
        raise ValueError(f"bank of {bank_n} too small for K={k} plus {size} background")
    blocked = np.sort(np.column_stack([neigh, batch_indices]), axis=1)
    repeat = np.zeros(blocked.shape, dtype=bool)
    repeat[:, 1:] = blocked[:, 1:] == blocked[:, :-1]
    # a repeated index blocks nothing more: move it past every position
    blocked[repeat] = bank_n + k + 1
    blocked.sort(axis=1)
    free = bank_n - (k + 1) + repeat.sum(axis=1)
    if np.any((free > 10_000) & (size > free // 50)):
        pos = np.array([rng.choice(f, size=size, replace=False) for f in free],
                       dtype=np.int64).reshape(b, size)
    else:
        pos = _floyd_choices(free, size, rng)
    # blocked[j] - j allowed indices lie below blocked[j]
    shifted = blocked - np.arange(k + 1)
    return pos + (shifted[:, None, :] <= pos[:, :, None]).sum(axis=2)


def aad_loss(batch_scores: np.ndarray, batch_indices: np.ndarray, bank: MemoryBank,
             lambda_t: float, cfg: AadConfig, rng: np.random.Generator | None = None,
             backgrounds: np.ndarray | None = None,
             knn: np.ndarray | None = None) -> tuple[float | np.ndarray, np.ndarray]:
    """Attract each prediction toward its close bank neighbors, disperse it
    from a resampled background set weighted by lambda_t. Gradient is with
    respect to batch_scores; bank entries are constants. knn is the bank's
    neighbor table with at least K columns; it is computed here when absent.

    batch_scores is (..., m, C) and batch_indices (..., m), one batch of m
    rows per leading index; the value has the leading shape (a float for
    one (m, C) batch). All rows draw their backgrounds in one
    sample_backgrounds call, in row-major order, which draws what one
    rng.choice per row would (with one rng.integers call outside numpy's
    tail regime), so a stack draws what its batches would in turn."""
    p, bidx, b = _checked_batch(batch_scores, batch_indices, bank)

    neigh = _bank_knn(bank, cfg.K, knn)[bidx]        # (..., b, K)
    if backgrounds is None:
        if rng is None:
            raise ValueError("aad_loss needs an rng when backgrounds are not given")
        backgrounds = sample_backgrounds(bank.n, neigh.reshape(-1, cfg.K), bidx.ravel(),
                                         cfg.background_size, rng
                                         ).reshape(*bidx.shape, cfg.background_size)

    s_close = bank.scores[neigh].sum(axis=-2)        # (..., b, C)
    s_far = bank.scores[backgrounds].sum(axis=-2)    # (..., b, C)
    value = (-(p * s_close).sum(axis=(-2, -1))
             + lambda_t * (p * s_far).sum(axis=(-2, -1))) / b
    grad = (-s_close + lambda_t * s_far) / b
    return value, grad


def softmax_score_grad(p: np.ndarray, dscores: np.ndarray) -> np.ndarray:
    """Pull a gradient on softmax outputs (..., C) back to the logits."""
    return p * (dscores - (p * dscores).sum(axis=-1, keepdims=True))


def _neighbor_start(kind: str, cfg, model: HeadModel, x: np.ndarray, dist: DistConfig):
    """engine.adapt's start for NRC and AAD: the copy's bank, and a step that
    ranks the neighbors it reads, runs the objective and refreshes the bank."""
    bank = build_bank(model, x)
    rng_bg = derive_rng(cfg.seed, "aad-background")
    table_k = max(cfg.K, cfg.KK) if kind == "nrc" else cfg.K

    def step(shards, t):
        rows = shards.ravel()
        lambda_t = inverse_decay(t, cfg.beta) if kind == "aad" else 0.0
        # the bank only changes once every shard has run, and a step reads
        # the table rows of its batch (AAD), or of its batch and their K
        # neighbors (NRC): rank those alone; the rest hold bank.n, so a stray read
        # raises IndexError
        knn = np.full((bank.n, table_k), bank.n, dtype=np.int64)
        knn[rows] = knn_indices(bank.features, table_k, rows=rows, unit=bank.unit)
        if kind == "nrc":
            # the batch rows' neighbors outside the batch, ascending
            extra = np.zeros(bank.n, dtype=bool)
            extra[knn[rows, :cfg.K]] = True
            extra[rows] = False
            extra = np.flatnonzero(extra)
            if extra.size:
                knn[extra] = knn_indices(bank.features, table_k, rows=extra, unit=bank.unit)

        probs = []  # the softmax of each objective call's logits, in shard order

        def objective(bidx, logits):
            p = softmax(logits)
            probs.append(p)
            if kind == "nrc":
                v, dscores = nrc_loss(p, bidx, bank, cfg, knn=knn)
            else:
                v, dscores = aad_loss(p, bidx, bank, lambda_t, cfg, rng=rng_bg, knn=knn)
            return v, softmax_score_grad(p, dscores)

        loss, grads, (_, _, feats) = sharded_step(model, x, shards, objective, dist.sync_batchnorm)
        # pre-update outputs, as the optimizer step that follows never reads
        # the bank; the stacked shards hold the batch rows in order, and so
        # do the objective's scores, one call per shard or one for them all
        bank.refresh(rows, feats.reshape(len(rows), -1),
                     np.concatenate([p.reshape(-1, p.shape[-1]) for p in probs]))
        return loss, grads

    return step, None


def nrc_adapt(model: HeadModel, target_features: np.ndarray, cfg: NrcConfig,
              dist: DistConfig | None = None) -> HeadModel:
    return adapt(model, target_features, cfg, dist, functools.partial(_neighbor_start, "nrc", cfg))


def aad_adapt(model: HeadModel, target_features: np.ndarray, cfg: AadConfig,
              dist: DistConfig | None = None) -> HeadModel:
    return adapt(model, target_features, cfg, dist, functools.partial(_neighbor_start, "aad", cfg))
