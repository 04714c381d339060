"""Shared numerical primitives: softmax, row normalization, exact k-NN,
one-hot targets, and seeded randomness helpers.

All arithmetic is float64. Ranking ties break toward the lower index so that
repeated runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import zlib

import numpy as np

Array = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed gives an identical stream."""
    return np.random.default_rng(seed)


def derive_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream keyed by (seed, tag); stable across runs and platforms."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def derive_seed(seed: int, tag: str) -> int:
    """Stable derived integer seed for nested configs."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def softmax(logits: Array) -> Array:
    """Row-wise softmax with the max-subtraction trick; rows sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: Array) -> Array:
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] == 0:
        raise ValueError("log_softmax of an empty vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def l2_normalize_rows(m: Array) -> Array:
    """Unit-normalize each row; raises naming the first zero row."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("l2_normalize_rows expects a matrix")
    norms = np.linalg.norm(m, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero row {int(zero[0])}")
    return m / norms[:, None]


def knn_indices(m: Array, k: int, metric: str = "cosine") -> Array:
    """Exact k nearest neighbors per row, self excluded.

    Returns an (n, k) int array ordered by decreasing similarity; ties break
    toward the lower index, so the result equals the first k columns of a
    stable descending argsort of each row, and the top-k table is a prefix of
    every larger one. Brute force over the full similarity matrix, no
    approximate indexing.

    Selection is partial: np.partition finds each row's k-th largest
    similarity, and only the candidates at or above it are stable-sorted, in
    index order, so equal similarities keep the lower index first. A row with
    more (or fewer) than k such candidates, because ties straddle the k-th
    place or a NaN is present, is stable-sorted alone.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("knn_indices expects a matrix")
    n = m.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < n={n}")
    # cost is the negated similarity (cosine) or the squared distance
    # (euclidean); ascending cost is descending similarity
    if metric == "cosine":
        u = l2_normalize_rows(m)
        cost = u @ u.T
        np.negative(cost, out=cost)
    elif metric == "euclidean":
        sq = (m * m).sum(axis=1)
        cost = sq[:, None] + sq[None, :] - 2.0 * (m @ m.T)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    np.fill_diagonal(cost, np.inf)
    kth = np.partition(cost, k - 1, axis=1)[:, k - 1:k]
    cand = cost <= kth
    exact = cand.sum(axis=1) == k
    out = np.empty((n, k), dtype=np.int64)
    rows = np.flatnonzero(exact)
    idx = np.nonzero(cand[rows])[1].reshape(rows.size, k)
    order = np.argsort(cost[rows[:, None], idx], axis=1, kind="stable")
    out[rows] = np.take_along_axis(idx, order, axis=1)
    for i in np.flatnonzero(~exact):
        out[i] = np.argsort(cost[i], kind="stable")[:k]
    return out


def one_hot(labels: Array, num_classes: int) -> Array:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
