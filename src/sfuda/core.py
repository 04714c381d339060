"""Shared numerical primitives (softmax, row normalization, exact k-NN,
one-hot targets, seeded randomness) and the config sections' checks.

Arithmetic runs in the precision of the data: a float32 array is computed
in float32, anything else in float64 (as_compute holds this one rule).
Ranking ties break toward the lower index so that repeated runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

import numbers
import zlib
from dataclasses import MISSING, field, fields
from typing import NamedTuple

import numpy as np

Array = np.ndarray


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator; identical seed gives an identical stream."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, not {seed}")
    return np.random.default_rng(seed)


def derive_rng(seed: int, tag: str) -> np.random.Generator:
    """Independent stream keyed by (seed, tag); stable across runs and platforms."""
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(tag.encode())]))


def derive_seed(seed: int, tag: str) -> int:
    """Stable derived integer seed for nested configs."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


_FLOAT32, _FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)


def as_compute(a) -> Array:
    """a as an array of the dtype arithmetic on it runs in, without a copy
    when it already is one: float32 when a is a float32 array (embeddings
    files store float32), float64 for anything else (float64 arrays,
    integers, lists, other float widths)."""
    if type(a) is np.ndarray and (a.dtype is _FLOAT64 or a.dtype is _FLOAT32):
        return a  # every per-step call: skip asarray's dtype resolution
    return np.asarray(a, dtype=_FLOAT32 if getattr(a, "dtype", None) == _FLOAT32 else np.float64)


def rounding_tol(dtype, n: int) -> float:
    """Tolerance of a check that rows of n entries, computed in dtype, have
    unit norm or sum to 1: 1e-6, or twice n * eps where that is larger. A
    row's norm or sum, both of it as computed and of the check, is off by at
    most about n * eps / 2 each, so the float32 bound (2.4e-4 for 1,024
    entries) is a worst case, and float64's stays 1e-6."""
    return max(1e-6, 2.0 * n * float(np.finfo(dtype).eps))


class SoftmaxPass(NamedTuple):
    """log_softmax(logits) and softmax(logits) of one pass (softmax_pass)."""

    logp: Array
    p: Array


def softmax_pass(logits: Array) -> SoftmaxPass:
    """Row-wise log-softmax and softmax from one check, max-shift, exp and
    sum: with z the shifted logits, e = exp(z) and s its row sums, logp is
    z - log(s) and p is e / s, each computed in place in z and e."""
    z = as_compute(logits)
    if z.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    if not np.isfinite(z).all():
        raise ValueError("softmax input must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=-1, keepdims=True)
    e /= s
    z -= np.log(s)
    return SoftmaxPass(z, e)


def softmax(logits: Array) -> Array:
    """Row-wise softmax with the max-subtraction trick; rows sum to 1."""
    return softmax_pass(logits).p


def log_softmax(logits: Array) -> Array:
    return softmax_pass(logits).logp


def l2_normalize_rows(m: Array) -> Array:
    """Unit-normalize each row; raises naming the first zero row."""
    m = as_compute(m)
    if m.ndim != 2:
        raise ValueError("l2_normalize_rows expects a matrix")
    norms = np.linalg.norm(m, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot normalize zero row {int(zero[0])}")
    return m / norms[:, None]


# Smallest gap between consecutive costs that a ranking of some rows trusts
# to order them as the full table does (see knn_indices).
_RANK_GUARD = 1e-12


def knn_indices(m: Array, k: int, *, rows: Array | None = None,
                unit: Array | None = None) -> Array:
    """Exact k nearest cosine neighbors per row, self excluded.

    Returns an (n, k) int array ordered by decreasing similarity; ties break
    toward the lower index. The full table is the first k columns of a
    stable argsort of each row of the negated similarity matrix, so the
    top-k table is a prefix of every larger one. Brute force, no
    approximate indexing.

    With rows (indices into m, in any order, repeats allowed) only those rows
    are ranked, from u[rows] @ u.T, and the result is knn_indices(m, k)[rows]
    bit for bit. Each ranked row's k+1 lowest costs are picked by k+1 argmin
    passes over the row, each pass setting its pick to inf, so they come out
    ascending. The two products round differently, by at most about d * eps
    on unit rows, so the order is trusted only where every gap between those
    k+1 costs exceeds a guard well above that (see _RANK_GUARD); a smaller
    gap or a tie among them makes the call rank the full table and return
    its rows. So does a NaN anywhere in a ranked row's costs, which the
    first pass picks: the result is the same, the cost that of the full
    table.

    Ranking runs in float64 whatever m's dtype. Its guard scales with the
    ranking precision's eps, and float32's (2.4e-4 at d = 256) is wider than
    the gaps between a row's nearest similarities: ranked in float32, every
    step of NRC and AAD on 4,030 rows fell back to the full table.

    unit, when given, must be l2_normalize_rows(m) in float64: a caller that
    ranks rows of one matrix more than once normalizes it once (a MemoryBank
    keeps its unit rows, renormalizing only the rows it refreshes).
    """
    m = as_compute(m)
    if m.ndim != 2:
        raise ValueError("knn_indices expects a matrix")
    n, d = m.shape
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < n={n}")
    # cost is the negated cosine similarity: ascending cost is descending
    # similarity
    u = (l2_normalize_rows(m.astype(np.float64, copy=False)) if unit is None
         else np.asarray(unit, dtype=np.float64))
    if u.shape != m.shape:
        raise ValueError(f"unit rows of shape {u.shape} do not match m {m.shape}")
    if rows is None:
        cost = u @ u.T
        np.negative(cost, out=cost)
        np.fill_diagonal(cost, np.inf)
        return np.argsort(cost, axis=1, kind="stable")[:, :k]
    rows = np.asarray(rows, dtype=np.int64)
    if rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= n)):
        raise ValueError(f"rows must be a vector of indices below n={n}")
    cost = -u[rows] @ u.T
    at = np.arange(rows.size)
    cost[at, rows] = np.inf
    # each row's k+1 lowest costs, ascending, by k+1 argmin passes that each
    # set their pick to inf; argmin takes the lower index of equal costs, and
    # a NaN before any number
    low = np.empty((rows.size, k + 1), dtype=np.int64)
    low_cost = np.empty((rows.size, k + 1), dtype=cost.dtype)
    for j in range(k + 1):
        low[:, j] = cost.argmin(axis=1)
        low_cost[:, j] = cost[at, low[:, j]]
        cost[at, low[:, j]] = np.inf
    gaps = np.diff(low_cost, axis=1)
    # Either product puts a cost of unit rows within d * eps / 2 of exact, so
    # rounding closes a gap of at most 2 * d * eps; the guard is four times
    # that at least. A NaN is the first pick of its row, and its gap compares
    # False.
    if not np.all(gaps > max(_RANK_GUARD, 8.0 * d * np.finfo(cost.dtype).eps)):
        return knn_indices(m, k, unit=u)[rows]
    return low[:, :k]


def one_hot(labels: Array, num_classes: int, dtype=np.float64) -> Array:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("label out of range for one_hot")
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


_KINDS = {"int": numbers.Integral, "float": numbers.Real, "str": str, "bool": bool, "dict": dict}


def check_type(name: str, value, kind: str) -> None:
    """Raises TypeError naming name unless value is of kind: int, float (an int
    passes, a bool is no number; NaN or inf, which json reads, is a ValueError),
    str, bool, dict, list[KIND] (a list, tuple or array of KIND), or "A | B"."""
    first, *rest = kind.split(" | ")
    listed = [k[5:-1] for k in (first, *rest) if k.startswith("list[")]
    if value is None and "None" in rest:
        return
    if listed and isinstance(value, (list, tuple, np.ndarray)):
        for v in value:
            check_type(name, v, listed[0])
    elif first.startswith("list["):
        raise TypeError(f"{name} must be a list, not {value!r}")
    elif isinstance(value, bool) != (first == "bool") or not isinstance(value, _KINDS[first]):
        raise TypeError(f"{name} must be {first}, not {value!r}")
    elif isinstance(value, (float, np.floating)) and not np.isfinite(value):
        raise ValueError(f"{name} must be finite, not {float(value)!r}")


def _bounded(ok, message: str):
    """A maker of Section fields, required unless given a default, whose value
    (unless None) must pass ok, or raises message formatted with name and value."""
    return lambda default=MISSING: field(default=default, metadata={"bound": (ok, message)})


# an int: at least 1; a list or array: every entry
positive = _bounded(lambda v: np.all(np.greater(v, 0)), "{name} must be positive")
nonnegative = _bounded(lambda v: v >= 0, "{name} must be nonnegative")
fraction = _bounded(lambda v: 0 <= v < 1, "{name} must lie in [0, 1)")


def one_of(names: tuple, default):
    """A Section field with default whose value must be one of names."""
    return _bounded(names.__contains__, "unknown {name} {value!r}")(default)


def field_bound(cls, name: str):
    """(ok, message) of cls's field name, from the nearest class in cls's MRO
    that bounds it, so a subclass that re-declares a field to change its
    default keeps its base's bound; None for an unbounded field."""
    for c in cls.__mro__:
        f = getattr(c, "__dataclass_fields__", {}).get(name)
        if f is not None and "bound" in f.metadata:
            return f.metadata["bound"]
    return None


class Section:
    """Base of the config dataclasses: building one checks each field, in
    declaration order, against its annotation (check_type) and then against
    its bound (positive, nonnegative, fraction or one_of), so the first field
    at fault is the one named."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            check_type(f.name, value, f.type)
            bound = field_bound(type(self), f.name)
            if bound is not None and value is not None and not bound[0](value):
                raise ValueError(bound[1].format(name=f.name, value=value))
