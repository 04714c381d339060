"""Synthetic domain pairs, embedding file IO, and results-table ingestion."""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import Section, l2_normalize_rows

EMBED_MAGIC = b"SFUD"


@dataclass
class DomainDataset:
    """Feature matrix with optional integer labels for one domain. The
    features are read-only, so that an adapter sees the matrix it is scored
    on: a float64 array is frozen in place, without a copy."""

    name: str
    features: np.ndarray
    labels: np.ndarray | None
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.features.flags.writeable = False
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"dataset {self.name!r} has non-finite features")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.n < self.num_classes:
            raise ValueError(f"need at least {self.num_classes} samples, got {self.n}")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.n,):
                raise ValueError("labels length must match feature rows")
            if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
                raise ValueError("label out of range")
            present = np.unique(self.labels)
            if present.size != self.num_classes:
                missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
                raise ValueError(f"classes {missing} have no samples")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class ShiftSpec(Section):
    """Affine domain shift: rotate in one coordinate plane, scale per feature,
    then translate; label_noise reassigns that fraction of target labels. As
    the data.generate.shift section, a vector given as one float repeats it."""

    mean_shift: float | list[float] = 0.0
    per_feature_scale: float | list[float] = 1.0
    per_feature_offset: float | list[float] = 0.0
    rotation_angle: float = 0.0
    rotation_plane: list[int] = (0, 1)
    label_noise: float = 0.0

    @classmethod
    def identity(cls, d: int) -> "ShiftSpec":
        return cls(np.zeros(d), np.ones(d), np.zeros(d))

    def validate(self, d: int) -> None:
        """Checks the shift for d features, each vector made d float64s first."""
        for name in ("mean_shift", "per_feature_scale", "per_feature_offset"):
            v = getattr(self, name)
            v = np.asarray([v] * d if np.ndim(v) == 0 else v, dtype=np.float64)
            if v.shape != (d,):
                raise ValueError(f"{name} must be a float or have shape ({d},), not {v.shape}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
            setattr(self, name, v)
        if np.any(self.per_feature_scale <= 0):
            raise ValueError("per_feature_scale entries must be positive")
        if not np.isfinite(self.rotation_angle):
            raise ValueError("rotation_angle must be finite")
        plane = self.rotation_plane
        if len(plane) != 2 or plane[0] == plane[1] or not all(0 <= a < d for a in plane):
            raise ValueError(f"rotation_plane must name two distinct feature axes, not {plane!r}")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must lie in [0, 1)")

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x -> scale * R(x) + mean_shift + offset."""
        x = np.asarray(x, dtype=np.float64)
        self.validate(x.shape[1])
        y = x.copy()
        if self.rotation_angle != 0.0:
            i, j = self.rotation_plane
            c, s = np.cos(self.rotation_angle), np.sin(self.rotation_angle)
            yi = c * x[:, i] - s * x[:, j]
            yj = s * x[:, i] + c * x[:, j]
            y[:, i], y[:, j] = yi, yj
        y = y * self.per_feature_scale
        return y + self.mean_shift + self.per_feature_offset


def gen_gaussian_pair(num_classes: int, dim: int, n_per_class: int, class_sep: float,
                      shift: ShiftSpec, rng: np.random.Generator,
                      ) -> tuple[DomainDataset, DomainDataset]:
    """Balanced Gaussian class clusters; the target redraws the same clusters
    and pushes them through the shift transform. Bitwise deterministic for a
    fixed generator state."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if dim < 2:
        raise ValueError("need at least 2 feature dimensions")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if class_sep <= 0:
        raise ValueError("class_sep must be positive")
    shift.validate(dim)

    means = l2_normalize_rows(rng.standard_normal((num_classes, dim))) * class_sep
    n_total = num_classes * n_per_class
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)

    src = means[labels] + rng.standard_normal((n_total, dim))
    tgt_clean = means[labels] + rng.standard_normal((n_total, dim))
    tgt = shift.apply(tgt_clean)

    tgt_labels = labels.copy()
    if shift.label_noise > 0.0:
        n_noise = int(round(shift.label_noise * n_total))
        if n_noise:
            idx = rng.choice(n_total, size=n_noise, replace=False)
            bump = rng.integers(1, num_classes, size=n_noise)
            tgt_labels[idx] = (tgt_labels[idx] + bump) % num_classes

    source = DomainDataset("synthetic-source", src, labels, num_classes)
    target = DomainDataset("synthetic-target", tgt, tgt_labels, num_classes)
    return source, target


def embeddings_bytes(dataset: DomainDataset) -> bytes:
    header = struct.pack("<4sIII", EMBED_MAGIC, dataset.n, dataset.d, 0)
    return header + dataset.features.astype("<f4").tobytes(order="C")


def labels_text(dataset: DomainDataset) -> str:
    if dataset.labels is None:
        raise ValueError("dataset has no labels to save")
    return "".join(f"{int(v)}\n" for v in dataset.labels)


def load_embeddings(features_path: str, labels_path: str | None = None,
                    num_classes: int | None = None, name: str | None = None,
                    ) -> DomainDataset:
    with open(features_path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"{features_path}: truncated header")
        magic, n, d, flags = struct.unpack("<4sIII", header)
        if magic != EMBED_MAGIC:
            raise ValueError(f"{features_path}: bad magic {magic!r}")
        if not n * d:
            raise ValueError(f"{features_path}: holds {n} rows of {d} features")
        payload = fh.read()
    expected = n * d * 4
    if len(payload) != expected:
        raise ValueError(
            f"{features_path}: expected {expected} payload bytes, found {len(payload)}")
    feats = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float64)

    labels = None
    if labels_path is not None:
        with open(labels_path) as fh:
            raw = [line.strip() for line in fh if line.strip()]
        if len(raw) != n:
            raise ValueError(f"{labels_path}: expected {n} labels, found {len(raw)}")
        try:
            labels = np.array([int(v) for v in raw], dtype=np.int64)
        except ValueError as e:
            raise ValueError(f"{labels_path}: non-integer label ({e})") from None
        if num_classes is None:
            num_classes = int(labels.max()) + 1
            if num_classes > n:  # each class needs a row
                raise ValueError(f"{labels_path}: largest label {num_classes - 1} implies "
                                 f"{num_classes} classes, but there are {n} rows")
    elif num_classes is None:
        raise ValueError("num_classes is required when no labels file is given")
    return DomainDataset(name or features_path, feats, labels, num_classes)


RESULT_COLUMNS = ("backbone", "top1", "pretrain", "task", "accuracy")


@dataclass
class ResultsRow:
    backbone: str
    top1: float
    pretrain: int
    task: str
    accuracy: float


@dataclass
class ResultsTable:
    rows: list[ResultsRow] = field(default_factory=list)

    def filter_task(self, task: str | None) -> "ResultsTable":
        if task is None:
            return self
        return ResultsTable([r for r in self.rows if r.task == task])


def load_results_table(path: str) -> ResultsTable:
    """Comma-delimited benchmark records; every malformed line is reported
    by its line number in the file, comment lines counted."""
    rows: list[ResultsRow] = []
    problems: list[str] = []
    with open(path, newline="") as fh:
        kept = [(n, line) for n, line in enumerate(fh, 1) if not line.startswith("#")]
        reader = csv.reader(line for _, line in kept)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if tuple(h.strip() for h in header) != RESULT_COLUMNS:
            raise ValueError(f"{path}: header must be {','.join(RESULT_COLUMNS)}")
        for rec in reader:
            lineno = kept[reader.line_num - 1][0]
            if len(rec) != len(RESULT_COLUMNS):
                problems.append(f"line {lineno}: expected {len(RESULT_COLUMNS)} columns")
                continue
            backbone, top1_s, pre_s, task, acc_s = (v.strip() for v in rec)
            try:
                top1 = float(top1_s)
                acc = float(acc_s)
                pre = int(pre_s)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric field")
                continue
            if not 0.0 <= top1 <= 100.0:
                problems.append(f"line {lineno}: top1 {top1} outside [0, 100]")
                continue
            if not 0.0 <= acc <= 100.0:
                problems.append(f"line {lineno}: accuracy {acc} outside [0, 100]")
                continue
            if pre not in (0, 1):
                problems.append(f"line {lineno}: pretrain flag must be 0 or 1")
                continue
            rows.append(ResultsRow(backbone, top1, pre, task, acc))
    if problems:
        raise ValueError(f"{path}: " + "; ".join(problems))
    return ResultsTable(rows)
