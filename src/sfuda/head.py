"""Trainable head: linear bottleneck, normalization, activation, and a linear
classifier, with hand-written forward/backward passes.

The backward pass differentiates through train-mode batch statistics, which is
what makes the sharded-gradient simulation meaningful. Finite-difference tests
pin every formula here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import derive_rng, log_softmax, make_rng, one_hot, softmax
from .data import DomainDataset

BOTTLENECK_PARAMS = ("bottleneck_weight", "bottleneck_bias", "gamma", "beta")
CLASSIFIER_PARAMS = ("classifier_weight", "classifier_bias")
PARAM_NAMES = BOTTLENECK_PARAMS + CLASSIFIER_PARAMS

NORM_KINDS = ("batchnorm", "layernorm")
ACTIVATIONS = ("relu", "gelu")


class StaleCacheError(RuntimeError):
    pass


@dataclass
class HeadConfig:
    in_dim: int
    num_classes: int
    hidden_dim: int = 256
    norm_kind: str = "layernorm"
    activation: str = "relu"
    bn_momentum: float = 0.1
    eps: float | None = None    # None: 1e-5 for batchnorm, 1e-6 for layernorm

    seed: int = 0

    def __post_init__(self):
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"unknown norm_kind {self.norm_kind!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if min(self.in_dim, self.num_classes, self.hidden_dim) < 1:
            raise ValueError("dimensions must be positive")
        if not 0.0 < self.bn_momentum <= 1.0:
            raise ValueError("bn_momentum must lie in (0, 1]")
        if self.eps is None:
            self.eps = 1e-5 if self.norm_kind == "batchnorm" else 1e-6
        if self.eps <= 0:
            raise ValueError("eps must be positive")


@dataclass
class NormLayer:
    kind: str
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray | None
    running_var: np.ndarray | None
    momentum: float
    eps: float

    def copy(self) -> "NormLayer":
        return NormLayer(self.kind, self.gamma.copy(), self.beta.copy(),
                         None if self.running_mean is None else self.running_mean.copy(),
                         None if self.running_var is None else self.running_var.copy(),
                         self.momentum, self.eps)


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
        """Live references to the trainable tensors, in declaration order."""
        return {
            "bottleneck_weight": self.bottleneck_weight,
            "bottleneck_bias": self.bottleneck_bias,
            "gamma": self.norm.gamma,
            "beta": self.norm.beta,
            "classifier_weight": self.classifier_weight,
            "classifier_bias": self.classifier_bias,
        }

    def copy(self) -> "HeadModel":
        return HeadModel(self.bottleneck_weight.copy(), self.bottleneck_bias.copy(),
                         self.norm.copy(), self.activation,
                         self.classifier_weight.copy(), self.classifier_bias.copy(),
                         self.version)

    def bump_version(self) -> None:
        self.version += 1


def init_head(cfg: HeadConfig) -> HeadModel:
    """He-style normal init for weights, zeros for biases, identity norm."""
    rng = make_rng(cfg.seed)
    d, h, c = cfg.in_dim, cfg.hidden_dim, cfg.num_classes
    w1 = rng.standard_normal((d, h)) * np.sqrt(2.0 / d)
    wc = rng.standard_normal((h, c)) * np.sqrt(2.0 / h)
    bn = cfg.norm_kind == "batchnorm"
    norm = NormLayer(cfg.norm_kind, np.ones(h), np.zeros(h),
                     np.zeros(h) if bn else None,
                     np.ones(h) if bn else None,
                     cfg.bn_momentum, cfg.eps)
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


def _gelu(y: np.ndarray) -> np.ndarray:
    from scipy.special import erf  # imported here: it is most of the package's import time
    return y * 0.5 * (1.0 + erf(y / np.sqrt(2.0)))


def _gelu_grad(y: np.ndarray) -> np.ndarray:
    from scipy.special import erf
    phi = np.exp(-0.5 * y * y) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(y / np.sqrt(2.0))) + y * phi


def forward(model: HeadModel, x: np.ndarray, mode: str = "eval",
            ) -> tuple[np.ndarray, np.ndarray, ForwardCache]:
    """Returns (logits, post-activation bottleneck features, cache).

    Train mode normalizes with batch statistics and updates the running
    estimates; eval mode is a pure per-row function.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError(f"expected inputs of width {model.in_dim}, got {x.shape}")
    b = x.shape[0]
    norm = model.norm
    z = x @ model.bottleneck_weight + model.bottleneck_bias

    if norm.kind == "batchnorm":
        if mode == "train":
            if b < 2:
                raise ValueError("train-mode batchnorm needs a batch of at least 2")
            mu = z.mean(axis=0)
            var = z.var(axis=0)
            inv = 1.0 / np.sqrt(var + norm.eps)
            xhat = (z - mu) * inv
            m = norm.momentum
            norm.running_mean = (1.0 - m) * norm.running_mean + m * mu
            norm.running_var = (1.0 - m) * norm.running_var + m * var * b / (b - 1)
        else:
            inv = 1.0 / np.sqrt(norm.running_var + norm.eps)
            xhat = (z - norm.running_mean) * inv
    else:
        mu = z.mean(axis=1, keepdims=True)
        var = z.var(axis=1, keepdims=True)
        inv = 1.0 / np.sqrt(var + norm.eps)
        xhat = (z - mu) * inv
    y = norm.gamma * xhat + norm.beta

    if model.activation == "relu":
        feats = np.maximum(y, 0.0)
    else:
        feats = _gelu(y)
    logits = feats @ model.classifier_weight + model.classifier_bias
    cache = ForwardCache(mode, x, xhat, inv, y, feats, model.version)
    return logits, feats, cache


def _classifier_grads(feats: np.ndarray, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of the classifier tensors, given the features it read."""
    return {"classifier_weight": feats.T @ dlogits,
            "classifier_bias": dlogits.sum(axis=0)}


def backward(model: HeadModel, cache: ForwardCache, dlogits: np.ndarray,
             ) -> dict[str, np.ndarray]:
    """Analytic gradients of a scalar loss wrt every parameter tensor.

    Train-mode batchnorm gradients flow through the batch mean and variance;
    eval-mode statistics are constants.
    """
    if cache.version != model.version:
        raise StaleCacheError("forward cache is stale; parameters changed since")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    feats, y, xhat, inv = cache.feats, cache.y, cache.xhat, cache.inv_std
    norm = model.norm

    grads = _classifier_grads(feats, dlogits)
    dfeats = dlogits @ model.classifier_weight.T

    if model.activation == "relu":
        dy = dfeats * (y > 0)
    else:
        dy = dfeats * _gelu_grad(y)

    dgamma = (dy * xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dxhat = dy * norm.gamma

    if norm.kind == "batchnorm":
        if cache.mode == "train":
            dz = inv * (dxhat - dxhat.mean(axis=0)
                        - xhat * (dxhat * xhat).mean(axis=0))
        else:
            dz = dxhat * inv
    else:
        dz = inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))

    d_w1 = cache.x.T @ dz
    d_b1 = dz.sum(axis=0)
    return {
        "bottleneck_weight": d_w1,
        "bottleneck_bias": d_b1,
        "gamma": dgamma,
        "beta": dbeta,
        **grads,
    }


def cross_entropy(logits: np.ndarray, targets: np.ndarray,
                  ) -> tuple[float, np.ndarray]:
    """Mean soft-target cross entropy and its logit gradient."""
    targets = np.asarray(targets, dtype=np.float64)
    b = logits.shape[0]
    logp = log_softmax(logits)
    value = float(-(targets * logp).sum() / b)
    dlogits = (softmax(logits) - targets) / b
    return value, dlogits


def smoothed_targets(labels: np.ndarray, num_classes: int, smoothing: float) -> np.ndarray:
    if not 0.0 <= smoothing < 1.0:
        raise ValueError("label smoothing must lie in [0, 1)")
    hot = one_hot(labels, num_classes)
    return hot * (1.0 - smoothing) + smoothing / num_classes


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 64
    learning_rate: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 1e-3
    label_smoothing: float = 0.1
    lr_schedule: str = "inverse-decay"
    grad_clip: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be positive")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ValueError("learning_rate and weight_decay must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.lr_schedule not in ("constant", "inverse-decay"):
            raise ValueError(f"unknown lr_schedule {self.lr_schedule!r}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive when set")


def scheduled_lr(base: float, schedule: str, step: int, total_steps: int) -> float:
    """Step size at a step: base itself under "constant", else the shared
    (1 + 10 t)^(-0.75) inverse decay with t = step / total_steps."""
    if schedule == "constant":
        return base
    t = step / max(1, total_steps)
    return base * (1.0 + 10.0 * t) ** -0.75


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return min(total, max_norm)


class SgdState:
    """Per-tensor momentum buffers."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.buf = {k: np.zeros_like(v) for k, v in params.items()}


def sgd_step(model: HeadModel, grads: dict[str, np.ndarray], state: SgdState,
             lr: float, momentum: float, weight_decay: float,
             lr_scale: dict[str, float] | None = None) -> None:
    params = model.params()
    for name, g in grads.items():
        p = params[name]
        buf = state.buf[name]
        buf *= momentum
        buf += g + weight_decay * p
        p -= lr * (lr_scale.get(name, 1.0) if lr_scale else 1.0) * buf
    model.bump_version()


def run_epochs(model: HeadModel, n: int, batch_size: int, epochs: int, step_grads, *,
               names: tuple[str, ...], rng: np.random.Generator, learning_rate: float,
               momentum: float, weight_decay: float, schedule: str = "inverse-decay",
               grad_clip: float | None = None, lr_scale: dict[str, float] | None = None,
               epoch_hook=None, step_hook=None) -> None:
    """The one SGD loop behind first transfer and every adapter; trains model
    in place.

    Each epoch calls epoch_hook(), then cuts a seeded shuffle of the n
    rows into contiguous batches, dropping the trailing partial batch. Per
    batch, step_grads(rows, step) -> (loss, grads) gives the gradients; the
    loop keeps those of the trainable names, clips their global norm to
    grad_clip when set, calls step_hook(step, loss, grads), and takes a
    momentum step at the scheduled rate times lr_scale[name] (default 1).
    """
    params = model.params()
    state = SgdState({k: params[k] for k in names})
    steps_per_epoch = n // batch_size
    total_steps = epochs * steps_per_epoch
    step = 0
    for _ in range(epochs):
        if epoch_hook is not None:
            epoch_hook()
        order = rng.permutation(n)
        for s in range(steps_per_epoch):
            loss, grads = step_grads(order[s * batch_size:(s + 1) * batch_size], step)
            grads = {k: grads[k] for k in names}
            if grad_clip is not None:
                clip_global_norm(grads, grad_clip)
            if step_hook is not None:
                step_hook(step, loss, grads)
            sgd_step(model, grads, state,
                     scheduled_lr(learning_rate, schedule, step, total_steps),
                     momentum, weight_decay, lr_scale)
            step += 1


def train_supervised(model: HeadModel, data: DomainDataset, scope: str,
                     cfg: TrainConfig, step_hook=None) -> HeadModel:
    """Label-smoothed cross-entropy training with SGD momentum.

    scope="classifier_only" runs eval-mode forwards and computes only the
    classifier gradients, so the bottleneck, the norm parameters, and the
    batchnorm running statistics stay untouched. scope="full" trains
    everything with the bottleneck at a tenth of the rate.
    """
    if data.labels is None:
        raise ValueError("supervised training needs labels")
    if scope not in ("classifier_only", "full"):
        raise ValueError(f"unknown scope {scope!r}")
    if data.d != model.in_dim or data.num_classes != model.num_classes:
        raise ValueError("model and dataset shapes disagree")
    model = model.copy()
    bs = min(cfg.batch_size, data.n)
    full = scope == "full"
    if full and model.norm.kind == "batchnorm" and bs < 2:
        raise ValueError("batch_size < 2 is invalid with a batchnorm head")
    targets = smoothed_targets(data.labels, data.num_classes, cfg.label_smoothing)
    mode = "train" if full else "eval"

    def step_grads(rows, _step):
        logits, feats, cache = forward(model, data.features[rows], mode)
        loss, dlogits = cross_entropy(logits, targets[rows])
        if full:
            return loss, backward(model, cache, dlogits)
        return loss, _classifier_grads(feats, dlogits)

    run_epochs(model, data.n, bs, cfg.epochs, step_grads,
               names=PARAM_NAMES if full else CLASSIFIER_PARAMS,
               rng=derive_rng(cfg.seed, "train-shuffle"),
               learning_rate=cfg.learning_rate, momentum=cfg.momentum,
               weight_decay=cfg.weight_decay, schedule=cfg.lr_schedule,
               grad_clip=cfg.grad_clip,
               # bottleneck-side tensors move slower than the freshly seeded classifier
               lr_scale={k: 0.1 for k in BOTTLENECK_PARAMS} if full else None,
               step_hook=step_hook)
    return model


def adabn(model: HeadModel, target_features: np.ndarray) -> HeadModel:
    """Swap batchnorm running statistics for the target set's pre-norm moments."""
    if model.norm.kind != "batchnorm":
        raise ValueError("statistic transfer needs a batchnorm head")
    x = np.asarray(target_features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ValueError("target features have the wrong width")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 target samples")
    z = x @ model.bottleneck_weight + model.bottleneck_bias
    out = model.copy()
    out.norm.running_mean = z.mean(axis=0)
    out.norm.running_var = z.var(axis=0, ddof=1)
    out.bump_version()
    return out


def evaluate(model: HeadModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy in percent, eval-mode forward."""
    logits, _, _ = forward(model, features, "eval")
    pred = logits.argmax(axis=1)
    return float((pred == np.asarray(labels)).mean() * 100.0)
