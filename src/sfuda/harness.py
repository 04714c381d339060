"""Benchmark orchestration: the six transfer tasks, multi-seed suites and
their per-spec statistics, failure-rate reports, and sweep expansion.

Every record carries the classifier-only out-of-domain baseline for its
(source, target, seed); an adaptation that lands strictly below it is a
failure. Identical specs reproduce identical accuracies bit for bit. A
suite keeps one table of first-transfer outcomes, filled before any record
runs: each distinct first transfer trains and is scored once per suite and
target, and every record reads it there; only adaptation computes more.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import os
import signal
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .core import derive_rng, derive_seed
from .data import DomainDataset
from .engine import DistConfig
from .head import HeadConfig, TrainConfig, evaluate, init_head, train_supervised
from .neighbors import AadConfig, NrcConfig, aad_adapt, nrc_adapt
from .pcsr import PcsrConfig, pcsr_adapt
from .sca import sca_adapt
from .shot import ShotConfig, shot_adapt

# The paper's grid: task -> (scope of its first transfer, evaluation). A
# linear probe ("classifier_only") or fine-tune ("full") is scored in-domain
# ("idg"), out-of-domain ("odg") or after source-free adaptation ("sfuda").
TASKS = {"LP-IDG": ("classifier_only", "idg"), "FT-IDG": ("full", "idg"),
         "LP-ODG": ("classifier_only", "odg"), "FT-ODG": ("full", "odg"),
         "SFUDA": ("classifier_only", "sfuda"), "FT-SFUDA": ("full", "sfuda")}
# the task a distgrid cell and, by default, a sweep run: a probe, adapted
SFUDA_TASK = next(task for task, cell in TASKS.items() if cell == ("classifier_only", "sfuda"))
# gradient-based adapters; prototype transport has no optimization loop to shard
ADAPT_METHODS = {
    "SHOT": (ShotConfig, shot_adapt),
    "NRC": (NrcConfig, nrc_adapt),
    "AAD": (AadConfig, aad_adapt),
    "PCSR": (PcsrConfig, pcsr_adapt),
}
METHODS = ("SCA",) + tuple(ADAPT_METHODS)
NO_GRADIENT_LOOP = "has no gradient loop to shard; its result is invariant to the worker layout"


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
    head_config: HeadConfig = field(init=False, repr=False)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}, expected one of {tuple(TASKS)}")
        evaluation = TASKS[self.task][1]
        if evaluation != "idg" and self.source is None:
            raise ValueError(f"{self.task} needs a source dataset")
        if evaluation == "sfuda":
            if self.method is None:
                raise ValueError(f"{self.task} needs an adaptation method")
            if self.method not in METHODS:
                raise ValueError(f"unknown method {self.method!r}")
        elif self.method is not None:
            raise ValueError(f"{self.task} does not take a method")
        if self.dist is not None and self.method not in ADAPT_METHODS:
            raise ValueError(f"{self.method or self.task} {NO_GRADIENT_LOOP}")
        if self.source is not None:
            if self.source.d != self.target.d:
                raise ValueError("source and target widths differ")
            if self.source.num_classes != self.target.num_classes:
                raise ValueError("source and target class counts differ")
        # every setting a record runs with, resolved once: seeds derive from
        # the run seed, and a sharded adapter's batch is the cell's global one
        self.head_config = HeadConfig(self.target.d, self.target.num_classes,
                                      self.hidden_dim, self.norm_kind, self.activation,
                                      seed=derive_seed(self.seed, "head-init"))
        self.train = replace(self.train or TrainConfig(),
                             seed=derive_seed(self.seed, "first-transfer"))
        if self.method in ADAPT_METHODS:
            cfg_cls = ADAPT_METHODS[self.method][0]
            cfg = self.method_config if self.method_config is not None else cfg_cls()
            if type(cfg) is not cfg_cls:
                raise TypeError(f"{self.method} takes a {cfg_cls.__name__}, "
                                f"not a {type(cfg).__name__}")
            batch = {} if self.dist is None else {"batch_size": self.dist.global_batch}
            self.method_config = replace(cfg, seed=derive_seed(self.seed, "adapt"), **batch)
        elif self.method_config is not None:
            raise ValueError(f"{self.method or self.task} takes no method config")


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


def _plan(spec: TaskSpec) -> dict[str, tuple]:
    """The first transfers spec's record reads, as role -> key: "lp" (the
    head the LP-ODG baseline scores) whenever there is a source, and
    "first", the task's own at its scope. A key holds all the outcome
    depends on: scope, training data (the source or the seed's in-domain
    split), target, head and train configs; datasets count by id."""
    scope, evaluation = TASKS[spec.task]
    tail = (id(spec.target), dataclasses.astuple(spec.head_config),
            dataclasses.astuple(spec.train))
    plan = {} if spec.source is None else {"lp": ("classifier_only", id(spec.source), *tail)}
    data = ("idg-split", spec.seed) if evaluation == "idg" else id(spec.source)
    plan["first"] = (scope, data, *tail)
    return plan


def _first_transfer(spec: TaskSpec, role: str):
    """The outcome of spec's first transfer in role (see _plan): the trained
    head and its accuracy, on the full target after training on the source
    (the baseline, or an ODG record's accuracy), else on the rows the seed's
    in-domain split holds out (80% per class trains). An Exception is the
    outcome instead, its traceback cleared; a BaseException propagates.
    Callers must not modify the head (every adapter trains a copy)."""
    scope, evaluation = ("classifier_only", "odg") if role == "lp" else TASKS[spec.task]
    target = spec.target
    try:
        if evaluation == "idg":
            rows, held = stratified_split(target.labels, 0.8, derive_rng(spec.seed, "idg-split"))
            split = DomainDataset(target.name + "/train", target.features[rows],
                                  target.labels[rows], target.num_classes)
            head = train_supervised(init_head(spec.head_config), split, scope, spec.train)
            return head, evaluate(head, target.features[held], target.labels[held])
        head = train_supervised(init_head(spec.head_config), spec.source, scope, spec.train)
        return head, evaluate(head, target.features, target.labels)
    except Exception as err:
        return err.with_traceback(None)


def _first_transfers(specs: list[TaskSpec], jobs: int = 1) -> dict[tuple, object]:
    """key -> outcome (see _plan, _first_transfer) of every first transfer
    the specs' records read, each distinct key computed once, on up to
    jobs worker processes (see _map)."""
    todo = {}
    for spec in specs:
        for role, key in _plan(spec).items():
            todo.setdefault(key, (spec, role))
    return dict(zip(todo, _map(lambda item: _first_transfer(*item), list(todo.values()), jobs)))


def run_task(spec: TaskSpec, transfers: dict | None = None) -> ExperimentRecord:
    """Execute one transfer task and score it against the shared baseline.
    Its first transfers and their scores are read from transfers (see
    _first_transfers), built for spec alone when None; a stored error is
    raised with a fresh traceback. Only a record with an adaptation method
    computes more. Sharing them changes no result, only how often they are
    computed."""
    t0 = time.perf_counter()
    if transfers is None:
        transfers = _first_transfers([spec])
    outcomes = {role: transfers[key] for role, key in _plan(spec).items()}
    for outcome in outcomes.values():  # "lp" first
        if isinstance(outcome, Exception):
            raise outcome.with_traceback(None)  # a fresh traceback, not a growing one
    baseline = outcomes["lp"][1] if "lp" in outcomes else float("nan")
    first, accuracy = outcomes["first"]

    target = spec.target
    # sfuda is transductive: the adapter sees the read-only matrix that is scored
    if spec.method == "SCA":
        # raw input space under classifier-only transfer, bottleneck after FT
        space = "raw" if TASKS[spec.task][0] == "classifier_only" else "bottleneck"
        labels, _ = sca_adapt(spec.source, target.features, space, model=first)
        accuracy = float((labels == target.labels).mean() * 100.0)
    elif spec.method is not None:
        adapt_fn = ADAPT_METHODS[spec.method][1]
        adapted = adapt_fn(first, target.features, spec.method_config, dist=spec.dist)
        accuracy = evaluate(adapted, target.features, target.labels)
    return _record(spec, accuracy, baseline, t0)


def _record(spec: TaskSpec, accuracy: float, baseline: float, t0: float,
            error: str | None = None) -> ExperimentRecord:
    """spec's record, scored against baseline, timed from perf_counter t0. A
    record that raised has nan scores, so it is no failure."""
    return ExperimentRecord(
        task=spec.task, method=spec.method,
        source_name=spec.source.name if spec.source else "",
        target_name=spec.target.name, norm_kind=spec.norm_kind, seed=spec.seed,
        accuracy=accuracy, baseline_lp_odg=baseline, delta=accuracy - baseline,
        failed=bool(accuracy < baseline), wall_time=time.perf_counter() - t0, error=error)


def format_mean_std(mean: float, std: float, n: int) -> str:
    s = f"{mean:.1f} ± {std:.1f}"
    return s + " (n=1)" if n == 1 else s


def _run_one(spec: TaskSpec, transfers: dict) -> ExperimentRecord:
    t0 = time.perf_counter()
    try:
        return run_task(spec, transfers)
    except Exception as err:  # isolate and record
        nan = float("nan")
        return _record(spec, nan, nan, t0, f"{type(err).__name__}: {err}")


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


def _cap_blas_threads(workers: int) -> None:
    """Cap each loaded OpenBLAS at this process's share of the usable cores
    among `workers` processes calling BLAS at once; a count already lower
    stays. No effect where no OpenBLAS is found."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    share = max(1, cpus // workers)
    for setter, getter in _blas_thread_controls():
        if share < getter():
            setter(share)
    # a set restarts the thread pool that fork stopped, and its idle threads
    # spin beside the other workers: stop it (BLAS restarts it on demand)
    for path in _openblas_libraries():
        with contextlib.suppress(OSError, AttributeError):  # unloadable, or no such symbol
            ctypes.CDLL(path).blas_thread_shutdown_()


PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>

# The (fn, items) a _map worker process serves; set by _start_worker in the
# forked workers only, never in the mapping process.
_worker_map: tuple | None = None


def _start_worker(fn, items: list, parent: int, workers: int) -> None:
    """Initializer of each of _map's `workers` workers. fork hands them fn
    and items as they are in the parent, without pickling."""
    global _worker_map
    _worker_map = fn, items
    # the kernel kills this worker when the mapping process dies, even by SIGKILL
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # it died before the request took effect
        os._exit(1)
    _cap_blas_threads(workers)


def _map_item(i: int):
    fn, items = _worker_map
    return fn(items[i])


def _map(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items], on up to `jobs` forked worker processes
    that each cap their own BLAS threads (the mapping process's never
    change); serially below two workers or where the platform cannot fork. A
    worker changes only its own copy of what fn reaches, and sends back only
    fn's result. A worker that dies raises BrokenProcessPool."""
    workers = min(jobs, len(items))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_start_worker,
                                   initargs=(fn, items, os.getpid(), workers))
    try:
        return list(executor.map(_map_item, range(len(items))))
    finally:  # after an exception (Ctrl-C too), start no further item
        executor.shutdown(cancel_futures=True)


def run_suite(specs: list[TaskSpec], seeds, jobs: int = 1) -> list[ExperimentRecord]:
    """Every spec at every seed, spec-major: spec i's records are the i-th
    run of len(seeds). A run that raises is recorded as an error, not a
    failure; the suite never aborts. Each distinct first transfer trains
    once per suite and target, before any record runs, and one that raises
    fails every record that needs it with the same error. jobs > 1 runs each
    of the two stages on that many forked worker processes (see _map);
    results do not depend on it and keep their positions."""
    flat = [replace(spec, seed=seed) for spec, seed in itertools.product(specs, seeds)]
    transfers = _first_transfers(flat, jobs)
    return _map(lambda spec: _run_one(spec, transfers), flat, jobs)


def spec_groups(records: list[ExperimentRecord], n_seeds: int) -> list[list]:
    """run_suite's records cut into one list per spec, by position: a spec
    listed twice keeps two groups."""
    return [records[i:i + n_seeds] for i in range(0, len(records), n_seeds)]


def mean_std(group: list[ExperimentRecord], skip_raised: bool = True) -> tuple[float, float, int]:
    """Mean, sample std (0.0 below two values) and count of group's
    accuracies. A record that raised has a nan accuracy: it is skipped, or
    with skip_raised False makes the mean nan."""
    vals = np.array([r.accuracy for r in group if not skip_raised or np.isfinite(r.accuracy)])
    n = int(vals.size)
    return (float(vals.mean()) if n else float("nan"),
            float(vals.std(ddof=1)) if n > 1 else 0.0, n)


def failure_report(records: list[ExperimentRecord], labels: list,
                   ) -> tuple[list[dict], list[str]]:
    """Delta-accuracy mean/std, failure rate and error rate, in percent, per
    group of records with one label (labels holds one per record), groups
    ordered by label: by value when every label reads as a number, else as
    text. A record that raised has no accuracy: it counts in `error_rate`
    and stays out of `failure_rate`, which is nan for a group where every
    record raised. Records without a finite baseline that did not raise
    cannot be scored against it and are skipped with a note."""
    scored = [(label, r) for label, r in zip(labels, records, strict=True)
              if np.isfinite(r.baseline_lp_odg) or r.error]
    notes = []
    skipped = len(records) - len(scored)
    if skipped:
        notes.append(f"{skipped} record(s) without a baseline omitted")

    names = sorted({label for label, _ in scored})
    with contextlib.suppress(TypeError, ValueError):  # labels that are numbers go by value
        names = sorted(names, key=float)
    rows = []
    for name in names:
        group = [r for label, r in scored if label == name]
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


def hyperparameter_grid(param_grid: dict, spec: TaskSpec) -> tuple[list[TaskSpec], list[dict]]:
    """One spec per combination of the swept parameters of spec's method,
    with that combination (parameter name -> value) as its key columns. A
    combination replaces its parameters in spec.method_config; a value its
    config rejects, or a seed, which each record derives, raises here.
    Running all the specs in one suite trains each first transfer once per
    seed, not once per combination."""
    method = spec.method
    if method not in ADAPT_METHODS:
        raise ValueError(f"sweep.method: {method or spec.task} exposes no swept hyperparameters")
    if not param_grid:
        raise ValueError("sweep: params must name at least one parameter")
    legal = {f.name for f in dataclasses.fields(spec.method_config)}
    for name, values in param_grid.items():
        if name == "seed":
            raise ValueError("sweep.params: seed is derived from each record's seed")
        if name not in legal:
            raise ValueError(f"sweep.params: {method} has no parameter {name!r}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"sweep.params: {name} needs a nonempty list of values")

    combos = [dict(zip(param_grid, combo)) for combo in itertools.product(*param_grid.values())]
    try:
        configs = [replace(spec.method_config, **combo) for combo in combos]
    except (TypeError, ValueError) as e:
        raise ValueError(f"sweep.params: {e}") from None
    return [replace(spec, method_config=c) for c in configs], combos
