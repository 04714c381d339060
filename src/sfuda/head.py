"""Trainable head: linear bottleneck, normalization, activation, and a linear
classifier, with hand-written forward/backward passes.

The backward pass differentiates through train-mode batch statistics, which is
what makes the sharded-gradient simulation meaningful. Finite-difference tests
pin every formula here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (Section, SoftmaxPass, as_compute, derive_rng, fraction, make_rng,
                   nonnegative, one_hot, one_of, positive, softmax_pass)
from .data import DomainDataset

BOTTLENECK_PARAMS = ("bottleneck_weight", "bottleneck_bias", "gamma", "beta")
CLASSIFIER_PARAMS = ("classifier_weight", "classifier_bias")
PARAM_NAMES = BOTTLENECK_PARAMS + CLASSIFIER_PARAMS


class StaleCacheError(RuntimeError):
    pass


@dataclass
class HeadConfig(Section):
    in_dim: int = positive()
    num_classes: int = positive()
    hidden_dim: int = positive(256)
    norm_kind: str = one_of(("batchnorm", "layernorm"), "layernorm")
    activation: str = one_of(("relu", "gelu"), "relu")
    seed: int = 0


@dataclass
class NormLayer:
    kind: str
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray | None
    running_var: np.ndarray | None
    momentum: float
    eps: float

    def copy(self, dtype=None) -> "NormLayer":
        """A copy whose tensors are cast to dtype (default: their own)."""
        def cp(a):
            return None if a is None else a.astype(a.dtype if dtype is None else dtype)

        return NormLayer(self.kind, cp(self.gamma), cp(self.beta), cp(self.running_mean),
                         cp(self.running_var), self.momentum, self.eps)


@dataclass
class HeadModel:
    bottleneck_weight: np.ndarray   # (d, h)
    bottleneck_bias: np.ndarray     # (h,)
    norm: NormLayer
    activation: str
    classifier_weight: np.ndarray   # (h, C)
    classifier_bias: np.ndarray     # (C,)
    version: int = 0

    @property
    def in_dim(self) -> int:
        return self.bottleneck_weight.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.bottleneck_weight.shape[1]

    @property
    def num_classes(self) -> int:
        return self.classifier_weight.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        """Live references to the trainable tensors, in PARAM_NAMES order."""
        return {k: getattr(self.norm if k in ("gamma", "beta") else self, k)
                for k in PARAM_NAMES}

    def copy(self, dtype=None) -> "HeadModel":
        """A copy whose tensors are cast to dtype (default: their own): a
        trainer casts the head it starts from to its data's dtype once."""
        dtype = self.bottleneck_weight.dtype if dtype is None else dtype
        return HeadModel(self.bottleneck_weight.astype(dtype),
                         self.bottleneck_bias.astype(dtype), self.norm.copy(dtype),
                         self.activation, self.classifier_weight.astype(dtype),
                         self.classifier_bias.astype(dtype), self.version)

    def bump_version(self) -> None:
        self.version += 1


def init_head(cfg: HeadConfig) -> HeadModel:
    """He-style normal init for weights, zeros for biases, identity norm
    (running-statistic momentum 0.1; eps 1e-5 for batchnorm, 1e-6 for
    layernorm), drawn in float64 whatever the data; a trainer casts a copy
    to its data's dtype (HeadModel.copy)."""
    rng = make_rng(cfg.seed)
    d, h, c = cfg.in_dim, cfg.hidden_dim, cfg.num_classes
    w1 = rng.standard_normal((d, h)) * np.sqrt(2.0 / d)
    wc = rng.standard_normal((h, c)) * np.sqrt(2.0 / h)
    bn = cfg.norm_kind == "batchnorm"
    norm = NormLayer(cfg.norm_kind, np.ones(h), np.zeros(h),
                     np.zeros(h) if bn else None,
                     np.ones(h) if bn else None,
                     0.1, 1e-5 if bn else 1e-6)
    return HeadModel(w1, np.zeros(h), norm, cfg.activation, wc, np.zeros(c))


@dataclass
class ForwardCache:
    mode: str
    x: np.ndarray
    xhat: np.ndarray
    inv_std: np.ndarray
    y: np.ndarray
    feats: np.ndarray
    version: int


# libm's erf of each entry, as a Python float: cast back to the input's
# dtype, a float32 entry is computed in double and rounded once
_erf = np.frompyfunc(math.erf, 1, 1)


def _gelu(y: np.ndarray) -> np.ndarray:
    # y * 0.5 * (1.0 + erf(y / sqrt 2)), each step after erf in place
    t = _erf(y / math.sqrt(2.0)).astype(y.dtype)
    t += 1.0
    out = y * 0.5
    out *= t
    return out


def _gelu_grad(y: np.ndarray) -> np.ndarray:
    # Python floats, not numpy float64 scalars, which would upcast float32
    phi = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    return 0.5 * (1.0 + _erf(y / math.sqrt(2.0)).astype(y.dtype)) + y * phi


def _mean(a: np.ndarray, axis: int) -> np.ndarray:
    """a.mean(axis=axis, keepdims=True) bit for bit, without np.mean's call
    overhead: the same np.add.reduce, then the true division by the count
    (which np.mean makes in float64 for float32 data; rounding that quotient
    to float32 gives the float32 quotient, as for any division)."""
    s = np.add.reduce(a, axis=axis, keepdims=True)
    s /= a.shape[axis]
    return s


def forward(model: HeadModel, x: np.ndarray, mode: str = "eval",
            ) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Returns (logits, post-activation bottleneck features, cache).

    Train mode normalizes with batch statistics and updates the running
    estimates; eval mode is a pure per-row function. Only this checks that
    a train-mode batchnorm batch, or each shard of a stack, has 2 rows.

    x is a batch (m, d) or a stack of equal worker shards (W, m, d). A stack
    gives each shard its own batch statistics and running-statistic update,
    in shard order, so its outputs and the model's state afterwards equal
    those of W forwards on the shards one after another, bit for bit.

    Every step past the bottleneck product runs in place, so a call
    allocates the arrays it returns or caches (xhat, y, feats, the logits)
    and only small statistics besides. The batch statistics are those of
    np.mean and np.var, bit for bit: the variance is the mean of the squared
    centred batch, which is np.var's own arithmetic.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = as_compute(x)
    if x.ndim not in (2, 3) or x.shape[-1] != model.in_dim:
        raise ValueError(f"expected inputs of width {model.in_dim}, got {x.shape}")
    b = x.shape[-2]
    norm = model.norm
    xhat = x @ model.bottleneck_weight
    xhat += model.bottleneck_bias

    if norm.kind == "batchnorm" and mode == "eval":
        xhat -= norm.running_mean
        inv = 1.0 / np.sqrt(norm.running_var + norm.eps)
        y = np.empty_like(xhat)
    else:
        if norm.kind == "batchnorm" and b < 2:
            raise ValueError("train-mode batchnorm needs a batch of at least 2")
        # batchnorm's statistics run over the batch, layernorm's over a row
        axis = -2 if norm.kind == "batchnorm" else -1
        mu = _mean(xhat, axis)
        xhat -= mu
        y = np.square(xhat)  # y's buffer holds the squares until the affine step
        var = _mean(y, axis)
        inv = 1.0 / np.sqrt(var + norm.eps)
        if norm.kind == "batchnorm":
            m, h = norm.momentum, xhat.shape[-1]
            for mu_w, var_w in zip(mu.reshape(-1, h), var.reshape(-1, h)):
                norm.running_mean = (1.0 - m) * norm.running_mean + m * mu_w
                norm.running_var = (1.0 - m) * norm.running_var + m * var_w * b / (b - 1)
    xhat *= inv
    np.multiply(norm.gamma, xhat, out=y)
    y += norm.beta

    if model.activation == "relu":
        feats = np.maximum(y, 0.0)
    else:
        feats = _gelu(y)
    logits = feats @ model.classifier_weight
    logits += model.classifier_bias
    cache = ForwardCache(mode, x, xhat, inv, y, feats, model.version)
    return logits, feats, cache


def _classifier_grads(feats: np.ndarray, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the classifier tensors, given the features it read
    (per shard when the inputs are stacked)."""
    return {"classifier_weight": np.swapaxes(feats, -1, -2) @ dlogits,
            "classifier_bias": dlogits.sum(axis=-2)}


def backward(model: HeadModel, cache: ForwardCache, dlogits: np.ndarray, *,
             classifier: bool = True) -> dict[str, np.ndarray]:
    """Analytic gradients of a scalar loss wrt every parameter tensor, or
    with classifier False wrt BOTTLENECK_PARAMS only (a frozen classifier's
    gradients are not computed; the others are the same bits).

    Train-mode batchnorm gradients flow through the batch mean and variance;
    eval-mode statistics are constants. After a stacked forward, dlogits is
    (W, m, C) too, each shard's gradients flow through its own statistics,
    and the result is the sum of the W per-shard gradients, added in shard
    order: bit for bit what summing W separate backward calls gives. The
    intermediates are built in place in arrays this call allocated; none of
    the cache's arrays is written.
    """
    if cache.version != model.version:
        raise StaleCacheError("forward cache is stale; parameters changed since")
    dlogits = as_compute(dlogits)
    feats, y, xhat, inv = cache.feats, cache.y, cache.xhat, cache.inv_std
    norm = model.norm

    dy = dlogits @ model.classifier_weight.T
    dy *= (y > 0) if model.activation == "relu" else _gelu_grad(y)

    dz = dy * norm.gamma  # dxhat, made into dz in place
    if norm.kind != "batchnorm" or cache.mode == "train":
        # dz = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), the
        # means over the batch (batchnorm) or a row (layernorm)
        axis = -2 if norm.kind == "batchnorm" else -1
        t = dz * xhat
        np.multiply(xhat, _mean(t, axis), out=t)
        dz -= _mean(dz, axis)
        dz -= t
    dz *= inv

    grads = {
        "bottleneck_weight": np.swapaxes(cache.x, -1, -2) @ dz,
        "bottleneck_bias": dz.sum(axis=-2),
        "gamma": (dy * xhat).sum(axis=-2),
        "beta": dy.sum(axis=-2),
        **(_classifier_grads(feats, dlogits) if classifier else {}),
    }
    if cache.x.ndim == 3:
        # add the shards' gradients one by one, in shard order, as summing
        # separate backward calls does (np.sum may pair them up instead)
        grads = {k: functools.reduce(np.add, g) for k, g in grads.items()}
    return grads


def cross_entropy(logits: np.ndarray, targets: np.ndarray, sm: SoftmaxPass | None = None,
                  ) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean soft-target cross entropy and its logit gradient. logits and
    targets are (..., m, C), one batch of m rows per leading index, and the
    value has the leading shape (a float for one (m, C) batch). sm, when
    given, must be softmax_pass(logits); a caller whose other terms read
    the same pass computes it once."""
    targets = as_compute(targets)
    b = logits.shape[-2]
    logp, p = softmax_pass(logits) if sm is None else sm
    value = -(targets * logp).sum(axis=(-2, -1)) / b
    dlogits = p - targets
    dlogits /= b
    return value, dlogits


def smoothed_targets(labels: np.ndarray, num_classes: int, smoothing: float,
                     dtype=np.float64) -> np.ndarray:
    hot = one_hot(labels, num_classes, dtype)
    return hot * (1.0 - smoothing) + smoothing / num_classes


@dataclass
class LoopConfig(Section):
    """The SGD settings of run_epochs, shared by first transfer and every
    adapter's config; subclasses add their own fields."""

    epochs: int = positive(15)
    batch_size: int = positive(64)
    learning_rate: float = nonnegative(1e-2)
    momentum: float = fraction(0.9)
    weight_decay: float = nonnegative(1e-3)
    seed: int = 0


@dataclass
class TrainConfig(LoopConfig):
    epochs: int = 30  # keeps LoopConfig's bound (core.field_bound)
    label_smoothing: float = fraction(0.1)
    lr_schedule: str = one_of(("constant", "inverse-decay"), "inverse-decay")
    grad_clip: float | None = positive(None)


def inverse_decay(t: float, power: float) -> float:
    """(1 + 10 t)^(-power), with t the share of a loop's steps taken."""
    return (1.0 + 10.0 * t) ** -power


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return min(total, max_norm)


def sgd_step(model: HeadModel, grads: dict[str, np.ndarray],
             buffers: dict[str, np.ndarray], lr: float, momentum: float, weight_decay: float,
             lr_scale: dict[str, float] | None = None) -> None:
    """One momentum step; buffers holds each trained tensor's momentum."""
    params = model.params()
    for name, g in grads.items():
        p = params[name]
        buf = buffers[name]
        buf *= momentum
        buf += g + weight_decay * p
        p -= lr * (lr_scale.get(name, 1.0) if lr_scale else 1.0) * buf
    model.bump_version()


def run_epochs(model: HeadModel, n: int, batch_size: int, cfg: LoopConfig, step_grads, *,
               rng: np.random.Generator, schedule: str = "inverse-decay",
               grad_clip: float | None = None, lr_scale: dict[str, float] | None = None,
               epoch_hook=None, step_hook=None) -> None:
    """The one SGD loop behind first transfer and every adapter; trains model
    in place for cfg.epochs at cfg's learning rate, momentum and weight decay.

    Each epoch calls epoch_hook(), then cuts a seeded shuffle of the n rows
    into contiguous batches, dropping the trailing partial batch. Per batch,
    step_grads(rows, t) -> (loss, grads), t the share of the loop's steps
    taken, gives the gradients of exactly the tensors it trains, the same
    keys in the same order at every step; the first step's keys size the
    momentum buffers. The loop clips their global norm to grad_clip when set,
    calls step_hook(step, loss, grads), and steps at cfg.learning_rate *
    inverse_decay(t, 0.75) (power 0 under "constant") times lr_scale[name].
    """
    buffers = None
    steps_per_epoch = n // batch_size
    total_steps = cfg.epochs * steps_per_epoch
    power = 0.0 if schedule == "constant" else 0.75  # x ** -0.0 is 1.0 exactly
    step = 0
    for _ in range(cfg.epochs):
        if epoch_hook is not None:
            epoch_hook()
        order = rng.permutation(n)
        for s in range(steps_per_epoch):
            t = step / total_steps
            loss, grads = step_grads(order[s * batch_size:(s + 1) * batch_size], t)
            if buffers is None:
                buffers = {k: np.zeros_like(model.params()[k]) for k in grads}
            if grad_clip is not None:
                clip_global_norm(grads, grad_clip)
            if step_hook is not None:
                step_hook(step, loss, grads)
            sgd_step(model, grads, buffers, cfg.learning_rate * inverse_decay(t, power),
                     cfg.momentum, cfg.weight_decay, lr_scale)
            step += 1


def train_supervised(model: HeadModel, data: DomainDataset, scope: str,
                     cfg: TrainConfig, step_hook=None) -> HeadModel:
    """Label-smoothed cross-entropy training with SGD momentum.

    scope="classifier_only" computes only the classifier gradients, so the
    bottleneck, the norm parameters, and the batchnorm running statistics
    stay untouched. Since the bottleneck never moves, its eval-mode features
    are computed once, by one forward over the whole set, and each step reads
    the rows of its batch. That equals a forward per batch bit for bit when a
    batch has at least 2 rows; a 1-row product goes through a different BLAS
    kernel and may differ in the last bits. scope="full" trains everything
    with the bottleneck at a tenth of the rate; on a batchnorm head forward
    raises at the first step if a batch has fewer than 2 rows.
    """
    if scope not in ("classifier_only", "full"):
        raise ValueError(f"unknown scope {scope!r}")
    if data.d != model.in_dim or data.num_classes != model.num_classes:
        raise ValueError("model and dataset shapes disagree")
    model = model.copy(data.features.dtype)
    bs = min(cfg.batch_size, data.n)
    full = scope == "full"
    targets = smoothed_targets(data.labels, data.num_classes, cfg.label_smoothing,
                               data.features.dtype)
    frozen = None if full else forward(model, data.features, "eval")[1]

    def step_grads(rows, _t):
        if full:
            logits, _, cache = forward(model, data.features[rows], "train")
            loss, dlogits = cross_entropy(logits, targets[rows])
            return loss, backward(model, cache, dlogits)
        feats = frozen[rows]
        logits = feats @ model.classifier_weight
        logits += model.classifier_bias
        loss, dlogits = cross_entropy(logits, targets[rows])
        return loss, _classifier_grads(feats, dlogits)

    run_epochs(model, data.n, bs, cfg, step_grads, rng=derive_rng(cfg.seed, "train-shuffle"),
               schedule=cfg.lr_schedule, grad_clip=cfg.grad_clip,
               # bottleneck-side tensors move slower than the freshly seeded classifier
               lr_scale={k: 0.1 for k in BOTTLENECK_PARAMS} if full else None,
               step_hook=step_hook)
    return model


def evaluate(model: HeadModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in percent, eval-mode forward."""
    logits, _, _ = forward(model, features, "eval")
    pred = logits.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean() * 100.0)
