"""Information-maximization adaptation with soft-weighted pseudo-label
prototypes. The classifier stays frozen; only the bottleneck and norm
parameters move."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SoftmaxPass, as_compute, l2_normalize_rows, log_softmax, nonnegative, one_hot,
                   softmax_pass)
from .engine import DistConfig, adapt, sharded_step
from .head import HeadModel, LoopConfig, cross_entropy, forward
from .sca import Prototypes, spherical_kmeans


@dataclass(frozen=True)
class ShotConfig(LoopConfig):
    ce_weight: float = nonnegative(0.3)
    kmeans_rounds: int = nonnegative(1)


def weighted_prototypes(probs: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Soft-count class centroids: k_c = sum_i p_c(i) f(i) / sum_i p_c(i).

    Raw (unnormalized) output; every class must carry positive soft mass.
    """
    probs = as_compute(probs)
    feats = as_compute(feats)
    mass = probs.sum(axis=0)
    if np.any(mass <= 0.0):
        c = int(np.flatnonzero(mass <= 0.0)[0])
        raise ValueError(f"class {c} has zero soft mass")
    return (probs.T @ feats) / mass[:, None]


def _label_pass(model: HeadModel, x: np.ndarray, kmeans_rounds: int,
                prev: Prototypes | None):
    """Full-set eval pass -> soft prototypes -> cosine K-Means refinement.

    The soft prototypes of the classes with positive mass come from one
    weighted_prototypes product. A class with zero soft mass takes the
    previous epoch's prototype, else the global mean. The features are
    normalized once, and the labels are the last K-Means round's assignments
    (with no round, the nearest soft prototype). Returns (labels,
    prototypes, unit features).
    """
    logits, feats, _ = forward(model, x, "eval")
    probs = log_softmax(logits)
    np.exp(probs, out=probs)
    live = probs.sum(axis=0) > 0.0
    centers = np.empty((model.num_classes, feats.shape[1]), dtype=feats.dtype)
    centers[live] = weighted_prototypes(probs[:, live], feats)
    # no row argmaxes to a dead class: a row's top class keeps >= 1/C of its mass
    centers[~live] = prev.centers[~live] if prev is not None else feats.mean(axis=0)
    protos = Prototypes(l2_normalize_rows(centers))  # row C is class C's prototype

    feats_n = l2_normalize_rows(feats)
    labels = None
    for _ in range(kmeans_rounds):
        protos, labels, _ = spherical_kmeans(feats, protos, unit=feats_n)
    if labels is None:
        labels = (feats_n @ protos.centers.T).argmax(axis=1).astype(np.int64)
    return labels, protos, feats_n

def shot_pseudo_labels(model: HeadModel, target_features: np.ndarray,
                       kmeans_rounds: int = 1,
                       prev_prototypes: Prototypes | None = None,
                       ) -> tuple[np.ndarray, Prototypes]:
    x = as_compute(target_features)
    labels, protos, _ = _label_pass(model, x, kmeans_rounds, prev_prototypes)
    return labels, protos


def entropy_loss(logits: np.ndarray, logp: np.ndarray | None = None,
                 p: np.ndarray | None = None) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean per-row prediction entropy and its logit gradient.

    logits is (..., m, C): each leading index is one batch of m rows, and
    the value has the leading shape (a float for one (m, C) batch). logp,
    when given, is log_softmax(logits), and p, when given, np.exp(logp):
    im_loss computes both once for its two terms."""
    b = logits.shape[-2]
    logp = log_softmax(logits) if logp is None else logp
    p = np.exp(logp) if p is None else p
    live = p > 0.0
    plogp = np.where(live, p * logp, 0.0)
    h_rows = -plogp.sum(axis=-1)
    grad = np.where(live, -p * (logp + h_rows[..., None]), 0.0)
    grad /= b
    return h_rows.mean(axis=-1), grad


def diversity_loss(logits: np.ndarray, logp: np.ndarray | None = None,
                   p: np.ndarray | None = None) -> tuple[float | np.ndarray, np.ndarray]:
    """Negative entropy of the batch-mean prediction, sum_k pbar_k ln pbar_k.

    This is the term that depends on who shares your batch: its minimum -ln C
    is reached when the batch marginal is uniform. logits is (..., m, C), and
    each leading index is a batch with its own marginal. logp and p are as
    in entropy_loss.
    """
    b = logits.shape[-2]
    logp = log_softmax(logits) if logp is None else logp
    p = np.exp(logp) if p is None else p
    # log pbar_k = logsumexp_i logp_ik - log b, stable even under underflow
    m = logp.max(axis=-2, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    # log b in logp's dtype: a numpy float64 scalar would upcast float32
    log_pbar = (np.log(np.exp(logp - m).sum(axis=-2, keepdims=True)) + m
                - np.log(logp.dtype.type(b)))
    pbar = np.exp(log_pbar)
    value = np.where(pbar > 0.0, pbar * log_pbar, 0.0).sum(axis=(-2, -1))
    inner = np.where(p > 0.0, p * log_pbar, 0.0)
    grad = p * inner.sum(axis=-1, keepdims=True)
    np.subtract(inner, grad, out=grad)
    grad /= b
    return value, grad


def im_loss(logits: np.ndarray, sm: SoftmaxPass | None = None,
            ) -> tuple[float | np.ndarray, np.ndarray]:
    """Information-maximization objective: confident rows, diverse marginal.

    Lower bound is -ln C, attained by one-hot rows spread evenly over classes.
    logits is (..., m, C), one value per leading index. sm, when given, is
    softmax_pass(logits); both terms read its logp and one p = np.exp(logp).
    """
    logp = (softmax_pass(logits) if sm is None else sm).logp
    p = np.exp(logp)
    ve, ge = entropy_loss(logits, logp, p)
    vd, gd = diversity_loss(logits, logp, p)
    ge += gd
    return ve + vd, ge


def run_im_ce_loop(model: HeadModel, target_features: np.ndarray, cfg: ShotConfig,
                   relabel, mixup_fn=None, mixup_weight: float = 0.0,
                   dist: DistConfig | None = None) -> HeadModel:
    """Shared trainer for the pseudo-label + information-maximization family.

    cfg (a ShotConfig, or PCSR's subclass) gives the loop's hyperparameters
    and the CE weight. relabel(model, x, prev_protos) -> (labels, protos)
    runs once per epoch on the loop's cast features x. The classifier never
    moves, so a step trains the bottleneck tensors sharded_step returns.
    mixup_fn, when given, adds mixup_weight times the CE on each shard's
    mixed rows, sharded the same way.
    """
    def start(model, x, dist):
        protos = targets = None

        def epoch_hook():
            nonlocal protos, targets
            labels, protos = relabel(model, x, protos)
            targets = one_hot(labels, model.num_classes, x.dtype)

        def objective(rows, logits):
            # one softmax pass for both information-maximization terms and CE
            sm = softmax_pass(logits)
            v_im, d_im = im_loss(logits, sm)
            v_ce, d_ce = cross_entropy(logits, targets[rows], sm)
            d_ce *= cfg.ce_weight
            d_im += d_ce
            return v_im + cfg.ce_weight * v_ce, d_im

        def step(shards, _t):
            loss, grads, _ = sharded_step(model, x, shards, objective, dist.sync_batchnorm,
                                          classifier=False)
            if mixup_fn is not None:
                mixed = [mixup_fn(x[sh], targets[sh]) for sh in shards]
                xm, tm = (np.concatenate(part) for part in zip(*mixed))
                _, gm, _ = sharded_step(model, xm, np.arange(len(xm)).reshape(shards.shape),
                                        lambda pos, logits: cross_entropy(logits, tm[pos]),
                                        dist.sync_batchnorm, classifier=False)
                for k in gm:
                    grads[k] += mixup_weight * gm[k]
            return loss, grads

        return step, epoch_hook

    return adapt(model, target_features, cfg, dist, start)


def shot_adapt(model: HeadModel, target_features: np.ndarray, cfg: ShotConfig,
               dist: DistConfig | None = None) -> HeadModel:
    """Adapt the bottleneck to unlabeled target features; classifier frozen."""

    def relabel(m, x, prev):
        return shot_pseudo_labels(m, x, cfg.kmeans_rounds, prev)

    return run_im_ce_loop(model, target_features, cfg, relabel, dist=dist)
