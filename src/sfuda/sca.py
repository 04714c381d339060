"""Source class anchors: class prototypes, spherical K-Means on the unit
sphere, and the prototype-transport adaptation that needs no gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_compute, l2_normalize_rows, rounding_tol
from .data import DomainDataset
from .head import HeadModel, forward


@dataclass
class Prototypes:
    """One unit-norm center per class, row index = class id; norms are
    checked to core.rounding_tol of the centers' dtype."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = as_compute(self.centers)
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ValueError("prototypes must be a nonempty matrix")
        norm_gap = np.abs(np.linalg.norm(self.centers, axis=1) - 1.0)
        if np.any(norm_gap > rounding_tol(self.centers.dtype, self.centers.shape[1])):
            raise ValueError("prototype rows must be unit norm")

    @property
    def num_classes(self) -> int:
        return self.centers.shape[0]


def class_prototypes(features: np.ndarray, labels: np.ndarray, num_classes: int,
                     ) -> Prototypes:
    """Normalized mean of normalized member features, one row per class."""
    feats = l2_normalize_rows(as_compute(features))
    labels = np.asarray(labels, dtype=np.int64)
    centers = np.empty((num_classes, feats.shape[1]), dtype=feats.dtype)
    for c in range(num_classes):
        members = feats[labels == c]
        if members.shape[0] == 0:
            raise ValueError(f"class {c} has no samples")
        m = members.mean(axis=0)
        norm = np.linalg.norm(m)
        if norm == 0.0:
            raise ValueError(f"class {c} prototype degenerates to zero")
        centers[c] = m / norm
    return Prototypes(centers)


# spherical_kmeans stops after this many passes, or at a pass that raises
# its objective by less than the tolerance
_KMEANS_MAX_ITERS, _KMEANS_TOL = 100, 1e-6


def spherical_kmeans(features: np.ndarray, init: Prototypes, *,
                     unit: np.ndarray | None = None,
                     ) -> tuple[Prototypes, np.ndarray, np.ndarray]:
    """Cosine K-Means initialized at the given centers.

    Assignment maximizes cosine similarity (ties to the lower center index);
    recentering takes the normalized member mean, keeping the previous center
    when a cluster empties or its mean is the zero vector. A pass recenters
    only the clusters whose member set changed: an unchanged set gives the
    same mean bit for bit. Returns (centers, assignments, objective trace),
    the assignments being to the returned centers also when the pass limit
    ends the loop; the trace of sum-of-best-similarities never decreases.

    unit, when given, must be l2_normalize_rows(features): a caller that
    already holds the unit rows passes them instead of normalizing twice.
    """
    features = as_compute(features)
    feats = l2_normalize_rows(features) if unit is None else as_compute(unit)
    if feats.shape != features.shape:
        raise ValueError(f"unit rows of shape {feats.shape} do not match features {features.shape}")
    if feats.shape[1] != init.centers.shape[1]:
        raise ValueError("feature and center widths disagree")
    centers = init.centers.copy()
    k = centers.shape[0]
    n = feats.shape[0]
    prev_assign = None
    trace: list[float] = []
    for _ in range(_KMEANS_MAX_ITERS):
        sims = feats @ centers.T
        assign = sims.argmax(axis=1).astype(np.int64)  # first max = lowest index
        trace.append(float(sims[np.arange(n), assign].sum()))
        if prev_assign is None:
            moved = range(k)
        else:
            changed = assign != prev_assign
            if not changed.any():
                break
            touched = np.zeros(k, dtype=bool)  # clusters a row left or joined
            touched[assign[changed]] = touched[prev_assign[changed]] = True
            moved = np.flatnonzero(touched)  # ascending
        if len(trace) >= 2 and trace[-1] - trace[-2] < _KMEANS_TOL:
            break
        for c in moved:
            members = feats[assign == c]
            if members.shape[0] == 0:
                continue  # frozen center
            m = members.mean(axis=0)
            norm = np.linalg.norm(m)
            if norm > 0.0:
                centers[c] = m / norm
        prev_assign = assign
    else:
        # the pass limit ended the loop after a recentering
        assign = (feats @ centers.T).argmax(axis=1).astype(np.int64)
    return Prototypes(centers), assign, np.asarray(trace)


def sca_adapt(source: DomainDataset, target_features: np.ndarray,
              space: str = "raw", model: HeadModel | None = None,
              ) -> tuple[np.ndarray, Prototypes]:
    """Transport source prototypes onto the target cloud by spherical K-Means,
    then label every target sample by its nearest adapted prototype.

    space="raw" clusters the input features directly; space="bottleneck" maps
    both domains through the model's bottleneck first (eval mode, no weight is
    modified).
    """
    target_features = as_compute(target_features)
    if space == "bottleneck":
        if model is None:
            raise ValueError("bottleneck space needs a head model")
        src_feats = forward(model, source.features, "eval")[1]
        tgt_feats = forward(model, target_features, "eval")[1]
    elif space == "raw":
        src_feats = source.features
        tgt_feats = target_features
    else:
        raise ValueError(f"unknown space {space!r}")
    if tgt_feats.shape[1] != src_feats.shape[1]:
        raise ValueError(
            f"target width {tgt_feats.shape[1]} does not match source width {src_feats.shape[1]}")

    protos = class_prototypes(src_feats, source.labels, source.num_classes)
    adapted, labels, _ = spherical_kmeans(tgt_feats, protos)
    return labels, adapted
