"""Polycentric pseudo-labeling with mixup consistency. Each class may own
several centers so elongated or split clusters stop bleeding labels; training
reuses the frozen-classifier information-maximization loop."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_compute, derive_rng, nonnegative, positive
from .engine import DistConfig
from .head import HeadModel
from .sca import Prototypes, spherical_kmeans
from .shot import ShotConfig, _label_pass, run_im_ce_loop


@dataclass
class PcsrConfig(ShotConfig):
    """SHOT's settings and checks, plus the sub-center count and mixup."""

    M: int = positive(2)
    mixup_alpha: float = positive(0.3)
    mixup_weight: float = nonnegative(1.0)


def mixup_batch(x: np.ndarray, targets: np.ndarray, alpha: float,
                rng: np.random.Generator, lam: float | None = None,
                ) -> tuple[np.ndarray, np.ndarray, float]:
    """Convex combination with a shuffled partner, one Beta(alpha, alpha)
    coefficient per batch. lam overrides the draw (test hook)."""
    x = as_compute(x)
    targets = as_compute(targets)
    if x.shape[0] < 2:
        raise ValueError("mixup needs a batch of at least 2")
    if x.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets must pair up")
    if lam is None:
        lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(x.shape[0])
    xm = lam * x + (1.0 - lam) * x[perm]
    tm = lam * targets + (1.0 - lam) * targets[perm]
    return xm, tm, lam


def _polycentric_refine(feats_n: np.ndarray, labels: np.ndarray,
                        base: Prototypes, m_centers: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Split each class into up to M cosine sub-centers, then relabel every
    sample by its globally nearest center's owning class."""
    c_count = base.num_classes
    centers: list[np.ndarray] = []
    owners: list[int] = []
    for c in range(c_count):
        member_idx = np.flatnonzero(labels == c)
        if member_idx.size == 0:
            centers.append(base.centers[c][None, :])
            owners.append(c)
            continue
        m_c = min(m_centers, member_idx.size)
        members = feats_n[member_idx]
        pick = rng.choice(member_idx.size, size=m_c, replace=False)
        init = Prototypes(members[pick])
        protos, _, _ = spherical_kmeans(members, init)
        centers.append(protos.centers)
        owners.extend([c] * m_c)
    all_centers = np.concatenate(centers, axis=0)
    owner = np.asarray(owners, dtype=np.int64)
    sims = feats_n @ all_centers.T
    return owner[sims.argmax(axis=1)]


def polycentric_pseudo_labels(model: HeadModel, target_features: np.ndarray,
                              m_centers: int, rng: np.random.Generator,
                              kmeans_rounds: int = 1,
                              prev_prototypes: Prototypes | None = None,
                              ) -> tuple[np.ndarray, Prototypes]:
    """Soft-prototype labeling refined by per-class sub-centers (rng picks
    their starting members), and the soft prototypes it refined. With
    m_centers=1 this reproduces the single-center labeling fixpoint."""
    if m_centers < 1:
        raise ValueError("m_centers must be positive")
    x = as_compute(target_features)
    labels, protos, feats_n = _label_pass(model, x, kmeans_rounds, prev_prototypes)
    return _polycentric_refine(feats_n, labels, protos, m_centers, rng), protos


def pcsr_adapt(model: HeadModel, target_features: np.ndarray, cfg: PcsrConfig,
               dist: DistConfig | None = None) -> HeadModel:
    """Polycentric pseudo-label CE + information maximization + mixup CE.

    Classifier frozen. With M=1 and mixup_weight=0 the loop runs the same
    arithmetic as the single-center soft-prototype adapter.
    """
    rng_centers = derive_rng(cfg.seed, "pcsr-centers")
    rng_mix = derive_rng(cfg.seed, "pcsr-mixup")

    def relabel(m, x, prev):
        return polycentric_pseudo_labels(m, x, cfg.M, rng_centers, cfg.kmeans_rounds, prev)

    mixup_fn = None
    if cfg.mixup_weight > 0.0:
        def mixup_fn(xb, tb):
            xm, tm, _ = mixup_batch(xb, tb, cfg.mixup_alpha, rng_mix)
            return xm, tm

    return run_im_ce_loop(model, target_features, cfg, relabel, mixup_fn=mixup_fn,
                          mixup_weight=cfg.mixup_weight, dist=dist)
