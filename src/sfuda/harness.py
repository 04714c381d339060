"""Benchmark orchestration: the six transfer tasks, multi-seed suites,
delta-accuracy and failure-rate reporting, and hyperparameter grids.

Every record carries the classifier-only out-of-domain baseline for its
(source, target, seed); an adaptation that lands strictly below it is a
failure. Identical specs reproduce identical accuracies bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .core import derive_rng, derive_seed
from .data import DomainDataset
from .distsim import ADAPT_METHODS
from .head import (HeadConfig, HeadModel, TrainConfig, evaluate, forward,
                   init_head, train_supervised)
from .sca import sca_adapt

TASKS = ("LP-IDG", "FT-IDG", "LP-ODG", "FT-ODG", "SFUDA", "FT-SFUDA")
METHODS = ("SCA",) + tuple(ADAPT_METHODS)


@dataclass
class TaskSpec:
    task: str
    target: DomainDataset
    source: DomainDataset | None = None
    method: str | None = None
    norm_kind: str = "layernorm"
    activation: str = "relu"
    hidden_dim: int = 256
    seed: int = 0
    train: TrainConfig | None = None
    method_config: object | None = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {TASKS}")
        needs_source = self.task not in ("LP-IDG", "FT-IDG")
        if needs_source and self.source is None:
            raise ValueError(f"{self.task} needs a source dataset")
        if self.task in ("SFUDA", "FT-SFUDA"):
            if self.method is None:
                raise ValueError(f"{self.task} needs an adaptation method")
            if self.method not in METHODS:
                raise ValueError(f"unknown method {self.method!r}")
        elif self.method is not None:
            raise ValueError(f"{self.task} does not take a method")
        if self.source is not None:
            if self.source.labels is None:
                raise ValueError("source dataset must be labeled")
            if self.source.d != self.target.d:
                raise ValueError("source and target widths differ")
            if self.source.num_classes != self.target.num_classes:
                raise ValueError("source and target class counts differ")
        if self.target.labels is None:
            raise ValueError("target labels are required for scoring")


@dataclass
class ExperimentRecord:
    task: str
    method: str | None
    source_name: str
    target_name: str
    norm_kind: str
    seed: int
    accuracy: float
    baseline_lp_odg: float
    delta: float
    failed: bool
    wall_time: float
    manifest: dict
    error: str | None = None


def stratified_split(labels: np.ndarray, train_frac: float,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Seeded per-class shuffle; both sides nonempty when class counts permit."""
    labels = np.asarray(labels, dtype=np.int64)
    train_parts, test_parts = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(idx.size)]
        n_tr = int(round(train_frac * idx.size))
        if idx.size >= 2:
            n_tr = min(max(n_tr, 1), idx.size - 1)
        else:
            n_tr = idx.size
        train_parts.append(idx[:n_tr])
        test_parts.append(idx[n_tr:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def _features_hash(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def _head_config(spec: TaskSpec, d: int, c: int) -> HeadConfig:
    return HeadConfig(d, c, spec.hidden_dim, spec.norm_kind, spec.activation,
                      seed=derive_seed(spec.seed, "head-init"))


def _train_cfg(spec: TaskSpec) -> TrainConfig:
    base = spec.train if spec.train is not None else TrainConfig()
    return replace(base, seed=derive_seed(spec.seed, "first-transfer"))


def _lp_odg(spec: TaskSpec) -> tuple[HeadModel, float]:
    """Classifier-only source training scored on the full target; the shared
    baseline. Bitwise identical whether run standalone or inside another task."""
    head = init_head(_head_config(spec, spec.source.d, spec.source.num_classes))
    model = train_supervised(head, spec.source, "classifier_only", _train_cfg(spec))
    return model, evaluate(model, spec.target.features, spec.target.labels)


def _dataset_fingerprint(ds: DomainDataset | None) -> dict | None:
    if ds is None:
        return None
    return {"name": ds.name, "n": ds.n, "d": ds.d, "num_classes": ds.num_classes,
            "features_sha256": _features_hash(ds.features)}


def run_task(spec: TaskSpec) -> ExperimentRecord:
    """Execute one transfer task and score it against the shared baseline."""
    t0 = time.perf_counter()
    target = spec.target
    method_cfg = None

    if spec.task in ("LP-IDG", "FT-IDG"):
        tr_idx, te_idx = stratified_split(target.labels, 0.8,
                                          derive_rng(spec.seed, "idg-split"))
        train_ds = DomainDataset(target.name + "/train",
                                 target.features[tr_idx], target.labels[tr_idx],
                                 target.num_classes)
        scope = "classifier_only" if spec.task == "LP-IDG" else "full"
        head = init_head(_head_config(spec, target.d, target.num_classes))
        model = train_supervised(head, train_ds, scope, _train_cfg(spec))
        accuracy = evaluate(model, target.features[te_idx], target.labels[te_idx])
        baseline = _lp_odg(spec)[1] if spec.source is not None else float("nan")

    elif spec.task in ("LP-ODG", "FT-ODG"):
        if spec.task == "LP-ODG":
            model, accuracy = _lp_odg(spec)
            baseline = accuracy
        else:
            head = init_head(_head_config(spec, spec.source.d, spec.source.num_classes))
            model = train_supervised(head, spec.source, "full", _train_cfg(spec))
            accuracy = evaluate(model, target.features, target.labels)
            baseline = _lp_odg(spec)[1]

    else:  # SFUDA / FT-SFUDA
        feats_hash_in = _features_hash(target.features)
        if spec.task == "SFUDA":
            first, baseline = _lp_odg(spec)
        else:
            head = init_head(_head_config(spec, spec.source.d, spec.source.num_classes))
            first = train_supervised(head, spec.source, "full", _train_cfg(spec))
            baseline = _lp_odg(spec)[1]

        if spec.method == "SCA":
            # raw input space under classifier-only transfer, bottleneck after FT
            space = "bottleneck" if spec.task == "FT-SFUDA" else "raw"
            labels, _ = sca_adapt(spec.source, target.features, space, model=first)
            accuracy = float((labels == target.labels).mean() * 100.0)
        else:
            cfg_cls, adapt_fn = ADAPT_METHODS[spec.method]
            base = spec.method_config if spec.method_config is not None else cfg_cls()
            method_cfg = replace(base, seed=derive_seed(spec.seed, "adapt"))
            adapted = adapt_fn(first, target.features, method_cfg)
            accuracy = evaluate(adapted, target.features, target.labels)
        # transductive contract: we score exactly the matrix the adapter saw
        if _features_hash(target.features) != feats_hash_in:
            raise RuntimeError("adapter modified the target features")

    delta = accuracy - baseline
    failed = bool(accuracy < baseline)
    manifest = {
        "task": spec.task,
        "method": spec.method,
        "norm_kind": spec.norm_kind,
        "activation": spec.activation,
        "hidden_dim": spec.hidden_dim,
        "seed": spec.seed,
        "train": dataclasses.asdict(spec.train) if spec.train else dataclasses.asdict(TrainConfig()),
        "method_config": dataclasses.asdict(method_cfg) if method_cfg is not None else None,
        "source": _dataset_fingerprint(spec.source),
        "target": _dataset_fingerprint(spec.target),
        "toolkit_version": __version__,
    }
    return ExperimentRecord(
        task=spec.task, method=spec.method,
        source_name=spec.source.name if spec.source else "",
        target_name=target.name, norm_kind=spec.norm_kind, seed=spec.seed,
        accuracy=accuracy, baseline_lp_odg=baseline, delta=delta, failed=failed,
        wall_time=time.perf_counter() - t0, manifest=manifest)


def _error_record(spec: TaskSpec, err: Exception) -> ExperimentRecord:
    nan = float("nan")
    return ExperimentRecord(
        task=spec.task, method=spec.method,
        source_name=spec.source.name if spec.source else "",
        target_name=spec.target.name, norm_kind=spec.norm_kind, seed=spec.seed,
        accuracy=nan, baseline_lp_odg=nan, delta=nan, failed=True,
        wall_time=0.0, manifest={"error": f"{type(err).__name__}: {err}"},
        error=f"{type(err).__name__}: {err}")


def format_mean_std(mean: float, std: float, n: int) -> str:
    s = f"{mean:.1f} ± {std:.1f}"
    return s + " (n=1)" if n == 1 else s


@dataclass
class SuiteResult:
    records: list[ExperimentRecord]
    aggregates: list[dict] = field(default_factory=list)


def _run_one(spec: TaskSpec) -> ExperimentRecord:
    try:
        return run_task(spec)
    except Exception as err:  # isolate and record
        return _error_record(spec, err)


def run_suite(specs: list[TaskSpec], seeds, jobs: int = 1) -> SuiteResult:
    """Every spec at every seed. A run that raises is recorded as a failure
    with its reason; the suite never aborts. jobs > 1 fans the independent
    runs over a thread pool; results keep their spec-order positions."""
    seeds = list(seeds)
    flat = [replace(spec, seed=seed) for spec in specs for seed in seeds]
    if jobs > 1 and len(flat) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one, flat))
    else:
        records = [_run_one(s) for s in flat]
    k = len(seeds)
    by_spec = [records[i * k:(i + 1) * k] for i in range(len(specs))]

    aggregates = []
    for spec, group in zip(specs, by_spec):
        vals = np.array([r.accuracy for r in group if np.isfinite(r.accuracy)])
        n = int(vals.size)
        mean = float(vals.mean()) if n else float("nan")
        std = float(vals.std(ddof=1)) if n > 1 else 0.0
        aggregates.append({
            "task": spec.task, "method": spec.method or "",
            "source": spec.source.name if spec.source else "",
            "target": spec.target.name, "norm_kind": spec.norm_kind,
            "n_seeds": len(group), "n_ok": n, "mean": mean, "std": std,
            "summary": format_mean_std(mean, std, n) if n else "no successful runs",
        })
    return SuiteResult(records, aggregates)


GROUP_KEYS = {"norm_kind": lambda r: r.norm_kind,
              "method": lambda r: r.method or "",
              "task": lambda r: r.task}


def failure_report(records: list[ExperimentRecord], group_by: str,
                   ) -> tuple[list[dict], list[str]]:
    """Delta-accuracy mean/std and failure rate per group. Records without a
    finite baseline cannot be scored against it and are skipped with a note."""
    if group_by not in GROUP_KEYS:
        raise ValueError(f"group_by must be one of {sorted(GROUP_KEYS)}")
    key = GROUP_KEYS[group_by]
    scored = [r for r in records if np.isfinite(r.baseline_lp_odg) or r.error]
    notes = []
    skipped = len(records) - len(scored)
    if skipped:
        notes.append(f"{skipped} record(s) without a baseline omitted")

    rows = []
    for name in sorted({key(r) for r in scored}):
        group = [r for r in scored if key(r) == name]
        if not group:
            notes.append(f"group {name!r} is empty")
            continue
        deltas = np.array([r.delta for r in group if np.isfinite(r.delta)])
        rows.append({
            "group": name,
            "n": len(group),
            "delta_mean": float(deltas.mean()) if deltas.size else float("nan"),
            "delta_std": float(deltas.std(ddof=1)) if deltas.size > 1 else 0.0,
            "failure_rate": 100.0 * sum(r.failed for r in group) / len(group),
        })
    return rows, notes


def hyperparameter_grid(method: str, param_grid: dict, specs: list[TaskSpec],
                        seeds) -> dict:
    """Mean accuracy for every combination of the swept method parameters."""
    if method == "SCA":
        raise ValueError("SCA exposes no swept hyperparameters")
    if method not in ADAPT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg_cls, _ = ADAPT_METHODS[method]
    legal = {f.name for f in dataclasses.fields(cfg_cls)}
    for name in param_grid:
        if name not in legal:
            raise ValueError(f"{method} has no parameter {name!r}")
    for spec in specs:
        if spec.method != method:
            raise ValueError("every spec in a sweep must use the swept method")

    names = list(param_grid)
    rows = []
    for combo in itertools.product(*(param_grid[n] for n in names)):
        override = dict(zip(names, combo))
        cfg = cfg_cls(**override)
        swept = [replace(s, method_config=cfg) for s in specs]
        result = run_suite(swept, seeds)
        vals = np.array([r.accuracy for r in result.records if np.isfinite(r.accuracy)])
        rows.append({"combo": override,
                     "mean": float(vals.mean()) if vals.size else float("nan"),
                     "n_ok": int(vals.size),
                     "n_total": len(result.records)})
    return {"method": method, "params": names, "rows": rows}
