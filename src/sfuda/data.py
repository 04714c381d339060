"""Synthetic domain pairs, embedding file IO, and results-table ingestion."""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import Section, as_compute, fraction, l2_normalize_rows, positive

EMBED_MAGIC = b"SFUD"


class LabelError(ValueError):
    """A dataset's labels disagree with its rows or its class count."""


@dataclass
class DomainDataset:
    """Feature matrix and integer labels of one domain: the labels train the
    first transfer and score every record; an adapter gets the features
    only. The features keep their compute dtype (core.as_compute): float32
    stays float32, and everything a record computes from them runs in
    float32; any other input becomes float64. They are read-only, so that an
    adapter sees the matrix it is scored on: a float32 or float64 array is
    frozen in place, without a copy."""

    name: str
    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = as_compute(self.features)
        self.features.flags.writeable = False
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError(f"dataset {self.name!r} has non-finite features")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.n < self.num_classes:
            raise ValueError(f"need at least {self.num_classes} samples, got {self.n}")
        try:  # None, strings and fractions alike: labels equal their int64 cast
            with np.errstate(invalid="ignore"):
                labels = np.asarray(self.labels).astype(np.int64)
        except (TypeError, ValueError):
            labels = None
        if labels is None or not np.array_equal(labels, self.labels):
            raise LabelError(f"dataset {self.name!r} needs integer labels")
        self.labels = labels
        if self.labels.shape != (self.n,):
            raise LabelError("labels length must match feature rows")
        outside = (self.labels < 0) | (self.labels >= self.num_classes)
        if outside.any():
            raise LabelError(f"label out of range: {self.labels[outside][0]} "
                             f"with {self.num_classes} classes")
        counts = np.bincount(self.labels, minlength=self.num_classes)
        if not counts.all():
            missing = np.flatnonzero(counts == 0).tolist()
            raise LabelError(f"classes {missing} of {self.num_classes} have no samples")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ShiftSpec(Section):
    """Affine domain shift: rotate in one coordinate plane, scale per feature
    (each scale positive), then translate; label_noise reassigns that fraction
    of target labels. A vector given as one float repeats it to each input's
    width; validate(d) checks the rules that need d."""

    mean_shift: float | list[float] = 0.0
    per_feature_scale: float | list[float] = positive(1.0)
    per_feature_offset: float | list[float] = 0.0
    rotation_angle: float = 0.0
    rotation_plane: list[int] = (0, 1)
    label_noise: float = fraction(0.0)

    @classmethod
    def identity(cls, d: int) -> "ShiftSpec":
        return cls(np.zeros(d), np.ones(d), np.zeros(d))

    def validate(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Checks the shift for d features, and returns its mean_shift,
        per_feature_scale and per_feature_offset as d floats each (float64
        unless given as a float32 array); the spec itself is unchanged."""
        vectors = []
        for name in ("mean_shift", "per_feature_scale", "per_feature_offset"):
            v = getattr(self, name)
            v = as_compute([v] * d if np.ndim(v) == 0 else v)
            if v.shape != (d,):
                raise ValueError(f"{name} must be a float or have shape ({d},), not {v.shape}")
            vectors.append(v)
        plane = self.rotation_plane
        if len(plane) != 2 or plane[0] == plane[1] or not all(0 <= a < d for a in plane):
            raise ValueError(f"rotation_plane must name two distinct feature axes, not {plane!r}")
        return tuple(vectors)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x -> scale * R(x) + mean_shift + offset."""
        x = as_compute(x)
        mean_shift, scale, offset = self.validate(x.shape[1])
        y = x.copy()
        if self.rotation_angle != 0.0:
            i, j = self.rotation_plane
            c, s = np.cos(self.rotation_angle), np.sin(self.rotation_angle)
            yi = c * x[:, i] - s * x[:, j]
            yj = s * x[:, i] + c * x[:, j]
            y[:, i], y[:, j] = yi, yj
        return y * scale + mean_shift + offset


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
    return "".join(f"{int(v)}\n" for v in dataset.labels)


def _note_digest(digests: dict | None, path: str, *parts: bytes) -> None:
    """digests[path] = sha256 of the parts in turn; nothing when digests is None."""
    if digests is not None:
        sha = hashlib.sha256()
        for part in parts:
            sha.update(part)
        digests[path] = sha.hexdigest()


def _read_text(path: str, digests: dict | None, newline: str | None = None) -> io.TextIOWrapper:
    """path's contents, read once, as open(path, newline=newline) would
    give them; their sha256 goes into digests (see _note_digest)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    _note_digest(digests, path, raw)
    return io.TextIOWrapper(io.BytesIO(raw), newline=newline)


def load_embeddings(features_path: str, labels_path: str,
                    num_classes: int | None = None, name: str | None = None,
                    *, digests: dict | None = None) -> DomainDataset:
    """A labeled dataset from an embeddings file and its labels file (one int
    a line). Each file is read once; with digests given, each path maps there
    to the sha256 of the bytes that were parsed."""
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
    _note_digest(digests, features_path, header, payload)
    expected = n * d * 4
    if len(payload) != expected:
        raise ValueError(
            f"{features_path}: expected {expected} payload bytes, found {len(payload)}")
    # float32 as stored: every record on these features computes in float32
    feats = np.frombuffer(payload, dtype="<f4").reshape(n, d).astype(np.float32, copy=False)

    with _read_text(labels_path, digests) as fh:
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
    try:
        return DomainDataset(name or features_path, feats, labels, num_classes)
    except LabelError as e:
        raise ValueError(f"{labels_path}: {e}") from None
    except ValueError as e:
        raise ValueError(f"{features_path}: {e}") from None


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


def read_table(path: str, delimiter: str | None = None, *, digests: dict | None = None,
               ) -> list[tuple[int, list[str]]]:
    """A delimited text table's rows as (line number in the file the row
    starts on, fields), header first. '#' comment lines and blank lines are
    skipped between rows; inside a quoted field they are kept. With no
    delimiter given, a tab in the first row picks tab, else comma. digests
    as in load_embeddings."""
    rows = []
    with _read_text(path, digests, newline="") as fh:
        numbered = enumerate(fh, 1)
        for n, line in numbered:
            if not line.strip() or line.startswith("#"):
                continue
            delimiter = delimiter or ("\t" if "\t" in line else ",")
            # the reader pulls further lines only while a quoted field is open
            lines = itertools.chain([line], (more for _, more in numbered))
            rows.append((n, next(csv.reader(lines, delimiter=delimiter))))
    return rows


def load_results_table(path: str, *, digests: dict | None = None) -> ResultsTable:
    """Comma-delimited benchmark records; every malformed line is reported
    by its line number in the file, comment and blank lines counted. digests
    as in load_embeddings."""
    rows: list[ResultsRow] = []
    problems: list[str] = []
    lines = read_table(path, ",", digests=digests)
    if not lines:
        raise ValueError(f"{path}: empty file")
    if tuple(h.strip() for h in lines[0][1]) != RESULT_COLUMNS:
        raise ValueError(f"{path}: header must be {','.join(RESULT_COLUMNS)}")
    for lineno, rec in lines[1:]:
        if len(rec) != len(RESULT_COLUMNS):
            problems.append(f"line {lineno}: expected {len(RESULT_COLUMNS)} columns")
            continue
        backbone, top1_s, pre_s, task, acc_s = (v.strip() for v in rec)
        try:
            top1, acc, pre = float(top1_s), float(acc_s), int(pre_s)
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
