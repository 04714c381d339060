"""Benchmark orchestration: the six transfer tasks, multi-seed suites,
delta-accuracy and failure-rate reporting, and hyperparameter grids.

Every record carries the classifier-only out-of-domain baseline for its
(source, target, seed); an adaptation that lands strictly below it is a
failure. Identical specs reproduce identical accuracies bit for bit, and a
suite trains each distinct first transfer once and shares it.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import itertools
import os
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .core import derive_rng, derive_seed
from .data import DomainDataset
from .engine import DistConfig
from .head import (HeadConfig, HeadModel, TrainConfig, evaluate, init_head,
                   train_supervised)
from .neighbors import AadConfig, NrcConfig, aad_adapt, nrc_adapt
from .pcsr import PcsrConfig, pcsr_adapt
from .sca import sca_adapt
from .shot import ShotConfig, shot_adapt

TASKS = ("LP-IDG", "FT-IDG", "LP-ODG", "FT-ODG", "SFUDA", "FT-SFUDA")
# gradient-based adapters; prototype transport has no optimization loop to shard
ADAPT_METHODS = {
    "SHOT": (ShotConfig, shot_adapt),
    "NRC": (NrcConfig, nrc_adapt),
    "AAD": (AadConfig, aad_adapt),
    "PCSR": (PcsrConfig, pcsr_adapt),
}
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
    dist: DistConfig | None = None

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
        if self.dist is not None and self.method not in ADAPT_METHODS:
            raise ValueError(f"{self.method or self.task} has no gradient loop to shard")
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


class TransferMemo:
    """Values computed once per key and shared while the memo lives: one
    `run_suite` call or one standalone `run_task`. A key is a tuple of
    objects, taken by identity, plus hashable parameters; the memo keeps those
    objects alive, so no other object can take over their ids. A computation
    that raises stores nothing: the next caller tries again and gets its own
    error. A pooled suite forks its workers, so each works on its own copy,
    under the same ids."""

    def __init__(self):
        self._slots: dict[tuple, tuple] = {}

    @staticmethod
    def key(objects: tuple, params: tuple) -> tuple:
        return tuple(map(id, objects)), params

    def get(self, objects: tuple, params: tuple, make):
        key = self.key(objects, params)
        if key not in self._slots:
            self._slots[key] = (objects, make())
        return self._slots[key][1]


def _transfer_entry(spec: TaskSpec, scope: str, data: DomainDataset) -> tuple:
    """first_transfer's memo key (objects, params) and computation; the key
    holds everything the head depends on."""
    head_cfg = _head_config(spec, data.d, data.num_classes)
    train_cfg = _train_cfg(spec)
    return ((data,), (scope, dataclasses.astuple(head_cfg), dataclasses.astuple(train_cfg)),
            lambda: train_supervised(init_head(head_cfg), data, scope, train_cfg))


def first_transfer(spec: TaskSpec, scope: str, data: DomainDataset,
                   memo: TransferMemo) -> HeadModel:
    """spec's head trained on data at scope, once per memo. Callers must not
    modify the result (every adapter trains a copy)."""
    return memo.get(*_transfer_entry(spec, scope, data))


def _baseline_entry(spec: TaskSpec, memo: TransferMemo) -> tuple:
    """The LP-ODG baseline's memo key and computation: the classifier-only
    source transfer scored on the full target. Bitwise identical whether run
    standalone or inside another task."""
    objects, params, _ = _transfer_entry(spec, "classifier_only", spec.source)
    target = spec.target
    return objects + (target,), ("baseline",) + params, lambda: evaluate(
        first_transfer(spec, "classifier_only", spec.source, memo),
        target.features, target.labels)


def _idg_split(spec: TaskSpec, memo: TransferMemo) -> tuple[DomainDataset, np.ndarray]:
    """The in-domain training set (80% per class) and the held-out indices."""
    target = spec.target

    def split():
        tr_idx, te_idx = stratified_split(target.labels, 0.8,
                                          derive_rng(spec.seed, "idg-split"))
        return DomainDataset(target.name + "/train", target.features[tr_idx],
                             target.labels[tr_idx], target.num_classes), te_idx

    return memo.get((target,), ("idg-split", spec.seed), split)


def _transfer_plan(spec: TaskSpec, memo: TransferMemo) -> dict[str, tuple]:
    """The first transfers spec's task starts from, as role -> (scope, data),
    in the order run_task trains them: "idg" on the in-domain split, "lp"
    (the head the LP-ODG baseline scores) whenever there is a source, and
    "ft" for the tasks that start from full fine-tuning on the source."""
    plan = {}
    if spec.task in ("LP-IDG", "FT-IDG"):
        plan["idg"] = ("classifier_only" if spec.task == "LP-IDG" else "full",
                       _idg_split(spec, memo)[0])
    if spec.source is not None:
        plan["lp"] = ("classifier_only", spec.source)
    if spec.task in ("FT-ODG", "FT-SFUDA"):
        plan["ft"] = ("full", spec.source)
    return plan


def _dataset_fingerprint(ds: DomainDataset | None, memo: TransferMemo) -> dict | None:
    """ds's manifest entry, hashed once per memo (the hash covers every
    feature byte, and a suite shares its datasets across records)."""
    if ds is None:
        return None
    return memo.get((ds,), ("fingerprint",), lambda: {
        "name": ds.name, "n": ds.n, "d": ds.d, "num_classes": ds.num_classes,
        "features_sha256": _features_hash(ds.features)})


def run_task(spec: TaskSpec, memo: TransferMemo | None = None) -> ExperimentRecord:
    """Execute one transfer task and score it against the shared baseline.
    First transfers and the baseline come from memo (a fresh one when None),
    which changes no result, only how often they are computed."""
    t0 = time.perf_counter()
    memo = memo if memo is not None else TransferMemo()
    target = spec.target
    method_cfg = None
    # taken before any adapter of the memo's suite can see the target
    fingerprints = {"source": _dataset_fingerprint(spec.source, memo),
                    "target": _dataset_fingerprint(target, memo)}
    heads = {role: first_transfer(spec, scope, data, memo)
             for role, (scope, data) in _transfer_plan(spec, memo).items()}
    baseline = memo.get(*_baseline_entry(spec, memo)) if "lp" in heads else float("nan")

    if spec.task in ("LP-IDG", "FT-IDG"):
        te_idx = _idg_split(spec, memo)[1]
        accuracy = evaluate(heads["idg"], target.features[te_idx], target.labels[te_idx])
    elif spec.task == "LP-ODG":
        accuracy = baseline
    elif spec.task == "FT-ODG":
        accuracy = evaluate(heads["ft"], target.features, target.labels)
    else:
        first = heads.get("ft", heads["lp"])
        if spec.method == "SCA":
            # raw input space under classifier-only transfer, bottleneck after FT
            space = "bottleneck" if spec.task == "FT-SFUDA" else "raw"
            labels, _ = sca_adapt(spec.source, target.features, space, model=first)
            accuracy = float((labels == target.labels).mean() * 100.0)
        else:
            cfg_cls, adapt_fn = ADAPT_METHODS[spec.method]
            base = spec.method_config if spec.method_config is not None else cfg_cls()
            method_cfg = replace(base, seed=derive_seed(spec.seed, "adapt"))
            adapted = adapt_fn(first, target.features, method_cfg, dist=spec.dist)
            accuracy = evaluate(adapted, target.features, target.labels)
        # transductive contract: we score exactly the matrix the adapter saw
        if _features_hash(target.features) != fingerprints["target"]["features_sha256"]:
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
        "dist": dataclasses.asdict(spec.dist) if spec.dist is not None else None,
        **fingerprints,
        "toolkit_version": __version__,
    }
    return ExperimentRecord(
        task=spec.task, method=spec.method,
        source_name=spec.source.name if spec.source else "",
        target_name=target.name, norm_kind=spec.norm_kind, seed=spec.seed,
        accuracy=accuracy, baseline_lp_odg=baseline, delta=delta, failed=failed,
        wall_time=time.perf_counter() - t0, manifest=manifest)


def _error_record(spec: TaskSpec, error: str) -> ExperimentRecord:
    nan = float("nan")
    return ExperimentRecord(
        task=spec.task, method=spec.method,
        source_name=spec.source.name if spec.source else "",
        target_name=spec.target.name, norm_kind=spec.norm_kind, seed=spec.seed,
        accuracy=nan, baseline_lp_odg=nan, delta=nan, failed=True,
        wall_time=0.0, manifest={"error": error}, error=error)


def _error_text(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def format_mean_std(mean: float, std: float, n: int) -> str:
    s = f"{mean:.1f} ± {std:.1f}"
    return s + " (n=1)" if n == 1 else s


@dataclass
class SuiteResult:
    records: list[ExperimentRecord]
    aggregates: list[dict] = field(default_factory=list)


def _run_one(spec: TaskSpec, memo: TransferMemo) -> ExperimentRecord:
    try:
        return run_task(spec, memo)
    except Exception as err:  # isolate and record
        return _error_record(spec, _error_text(err))


def _openblas_libraries() -> list[str]:
    """Paths of the OpenBLAS builds mapped into this process (numpy's and
    scipy's wheels each bundle one); empty where /proc/self/maps is absent."""
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    return sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})


def _blas_thread_controls() -> list[tuple]:
    """(set, get) of each loaded OpenBLAS's thread count, under whichever
    of the symbol names its build exports."""
    controls = []
    for path in _openblas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("openblas", "scipy_openblas"), ("", "64_")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def _blas_thread_cap(workers: int):
    """While `workers` processes each call BLAS, give each library at most its
    share of the usable cores, so workers times BLAS threads does not exceed
    them; a count already lower stays. Every changed count is restored on
    exit. Workers forked inside inherit the capped counts. No effect where
    no OpenBLAS is found."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    share = max(1, cpus // workers)
    changed = []
    try:
        for setter, getter in _blas_thread_controls():
            before = getter()
            if share < before:
                setter(share)
                changed.append((setter, before))
        yield
    finally:
        for setter, before in changed:
            setter(before)


# The (records, memo) of the pooled suite a worker process serves; set by
# _start_worker in the forked workers only, never in the suite's own process.
_worker_suite: tuple | None = None

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _start_worker(flat: list[TaskSpec], memo: TransferMemo, parent: int) -> None:
    """Initializer of a pooled suite's workers. fork hands them flat and memo
    as they are in the parent, without pickling."""
    global _worker_suite
    _worker_suite = flat, memo
    # the kernel kills this worker when the suite's process dies, even by SIGKILL
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it died before the request took effect
        os._exit(1)


def _pooled_transfer(i: int, role: str) -> tuple:
    """Stage one, in a worker: (head, its LP-ODG baseline or None, None) for
    record i's first transfer in that role, or (None, None, error)."""
    flat, memo = _worker_suite
    spec = flat[i]
    try:
        head = first_transfer(spec, *_transfer_plan(spec, memo)[role], memo)
        return head, memo.get(*_baseline_entry(spec, memo)) if role == "lp" else None, None
    except Exception as err:  # carried by the records that need this transfer
        return None, None, _error_text(err)


def _pooled_record(i: int) -> ExperimentRecord:
    flat, memo = _worker_suite
    return _run_one(flat[i], memo)


def _run_pooled(flat: list[TaskSpec], memo: TransferMemo, workers: int,
                ) -> list[ExperimentRecord]:
    """flat's records on `workers` forked processes, with what serial records
    share computed once: dataset hashes and in-domain splits here, then each
    distinct first transfer and baseline on a first pool, then the records
    on a second pool forked from the filled memo."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    @contextlib.contextmanager
    def pool():
        executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_start_worker,
                                       initargs=(flat, memo, os.getpid()))
        try:
            yield executor
        finally:  # after an exception (Ctrl-C too), start no further record
            executor.shutdown(cancel_futures=True)

    jobs, needs = {}, []  # memo key -> (first record, role); each record's keys
    for i, spec in enumerate(flat):
        _dataset_fingerprint(spec.source, memo)
        _dataset_fingerprint(spec.target, memo)
        keys = []
        for role, (scope, data) in _transfer_plan(spec, memo).items():
            keys.append(memo.key(*_transfer_entry(spec, scope, data)[:2]))
            jobs.setdefault(keys[-1], (i, role))
        needs.append(keys)

    with pool() as executor:
        done = list(executor.map(_pooled_transfer, *zip(*jobs.values())))
    errors = {}
    for key, (i, role), (head, baseline, error) in zip(jobs, jobs.values(), done):
        if error is not None:
            errors[key] = error
            continue
        spec = flat[i]
        memo.get(*_transfer_entry(spec, *_transfer_plan(spec, memo)[role])[:2], lambda: head)
        if baseline is not None:
            memo.get(*_baseline_entry(spec, memo)[:2], lambda: baseline)
    # as in a serial suite, a transfer that raised stores nothing: the first
    # record to reach it carries its error, and every later one tries again
    reached = {}
    for i, keys in enumerate(needs):
        key = next((k for k in keys if k in errors), None)
        if key is not None:
            reached.setdefault(key, i)
    carried = {i: errors[key] for key, i in reached.items()}

    todo = [i for i in range(len(flat)) if i not in carried]
    with pool() as executor:
        ran = dict(zip(todo, executor.map(_pooled_record, todo)))
    return [ran[i] if i in ran else _error_record(flat[i], carried[i])
            for i in range(len(flat))]


def run_suite(specs: list[TaskSpec], seeds, jobs: int = 1) -> SuiteResult:
    """Every spec at every seed. A run that raises is recorded as a failure
    with its reason; the suite never aborts. Each distinct first transfer
    trains once per suite. jobs > 1 runs the records on that many forked
    worker processes (serially where the platform cannot fork), with BLAS
    threads capped for the pool's lifetime; results do not depend on either
    and keep their spec-order positions. A worker that dies raises
    BrokenProcessPool."""
    seeds = list(seeds)
    flat = [replace(spec, seed=seed) for spec in specs for seed in seeds]
    memo = TransferMemo()
    workers = min(jobs, len(flat))
    if workers > 1 and hasattr(os, "fork"):
        with _blas_thread_cap(workers):
            records = _run_pooled(flat, memo, workers)
    else:
        records = [_run_one(s, memo) for s in flat]
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
    """Delta-accuracy mean/std, failure rate and error rate per group, in
    percent. A record that raised has no accuracy: it counts in `error_rate`
    and stays out of `failure_rate`, which is nan for a group where every
    record raised. Records without a finite baseline that did not raise
    cannot be scored against it and are skipped with a note."""
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
        ran = [r for r in group if not r.error]
        deltas = np.array([r.delta for r in group if np.isfinite(r.delta)])
        rows.append({
            "group": name,
            "n": len(group),
            "delta_mean": float(deltas.mean()) if deltas.size else float("nan"),
            "delta_std": float(deltas.std(ddof=1)) if deltas.size > 1 else 0.0,
            "failure_rate": (100.0 * sum(r.failed for r in ran) / len(ran)
                             if ran else float("nan")),
            "error_rate": 100.0 * (len(group) - len(ran)) / len(group),
        })
    return rows, notes


def hyperparameter_grid(method: str, param_grid: dict, specs: list[TaskSpec],
                        seeds, jobs: int = 1) -> dict:
    """Mean accuracy for every combination of the swept method parameters.
    Every combination runs in one suite, so each first transfer trains once
    per seed, not once per combination."""
    if method == "SCA":
        raise ValueError("SCA exposes no swept hyperparameters")
    if method not in ADAPT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    cfg_cls, _ = ADAPT_METHODS[method]
    legal = {f.name for f in dataclasses.fields(cfg_cls)}
    for name, values in param_grid.items():
        if name not in legal:
            raise ValueError(f"{method} has no parameter {name!r}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep parameter {name!r} needs a nonempty list of values")
    for spec in specs:
        if spec.method != method:
            raise ValueError("every spec in a sweep must use the swept method")

    names = list(param_grid)
    combos = [dict(zip(names, combo))
              for combo in itertools.product(*(param_grid[n] for n in names))]
    seeds = list(seeds)
    swept = [replace(s, method_config=cfg_cls(**combo)) for combo in combos for s in specs]
    records = run_suite(swept, seeds, jobs).records
    per_combo = len(specs) * len(seeds)  # records are spec-major
    rows = []
    for i, combo in enumerate(combos):
        group = records[i * per_combo:(i + 1) * per_combo]
        vals = np.array([r.accuracy for r in group if np.isfinite(r.accuracy)])
        rows.append({"combo": combo,
                     "mean": float(vals.mean()) if vals.size else float("nan"),
                     "n_ok": int(vals.size),
                     "n_total": len(group)})
    return {"method": method, "params": names, "rows": rows}
