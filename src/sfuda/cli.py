"""Command-line front end.

Subcommands: gen-data, run, suite, distgrid, sweep, stats, report. Runs are
driven by a JSON config (strictly validated, unknown keys rejected); flags
override file values. Every results file embeds the config hash and toolkit
version, outputs land only in the declared output directory, and a failed
command removes its partial outputs and exits nonzero with one error line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import json
import os
import shutil
import sys
from dataclasses import MISSING, dataclass, field, replace

import numpy as np

from . import __version__
from .core import Section, check_type, make_rng
from .data import (DomainDataset, ShiftSpec, embeddings_bytes, gen_gaussian_pair,
                   labels_text, load_embeddings, load_results_table, read_table)
from .distsim import cell_columns, check_cells, grid_error, grid_specs, parse_cell
from .engine import DEFAULT_GRID
from .harness import (ADAPT_METHODS, METHODS, NO_GRADIENT_LOOP, SFUDA_TASK, TASKS,
                      ExperimentRecord, TaskSpec, failure_report, format_mean_std,
                      hyperparameter_grid, mean_std, run_suite, spec_groups)
from .head import HeadConfig, LoopConfig, TrainConfig
from .stats import fit_linear, fit_multilinear

class CliError(ValueError):
    pass


def _check_keys(d: dict, allowed: set[str], ctx: str) -> None:
    if not isinstance(d, dict):
        raise CliError(f"{ctx} must be a JSON object")
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise CliError(f"{ctx}: unknown key(s) {', '.join(unknown)}")


@contextlib.contextmanager
def _named(ctx: str):
    """A TypeError or ValueError raised inside becomes a CliError naming ctx first."""
    try:
        yield
    except (TypeError, ValueError) as e:
        raise CliError(f"{ctx}: {e}") from None


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise CliError(f"config {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise CliError(f"config {path} must be a JSON object")
    # a manifest written next to results re-runs as a config
    if "config" in raw and "provenance" in raw:
        raw = raw["config"]
    _check_keys(raw, {"out_dir", "format", "seeds", "jobs", "head", "train", "data",
                      "tasks", "methods", "method_configs", "distgrid", "sweep",
                      "results_table", "records"}, "config")
    with _named("config"):  # before a path in it is opened or made
        for key, kind in (("out_dir", "str"), ("results_table", "str"),
                          ("tasks", "list[str]"), ("methods", "list[str]"),
                          ("records", "list[str]")):
            if key in raw:
                check_type(key, raw[key], kind)
    return raw


def parse_seeds(text: str) -> list[int]:
    def seed(piece: str) -> int:
        try:
            return int(piece)
        except ValueError:
            raise CliError(f"seeds must be nonnegative integers, not {piece!r}") from None

    text = text.strip()
    if ".." in text:
        lo, hi = map(seed, text.split("..", 1))
        if hi < lo:
            raise CliError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [seed(v) for v in text.split(",") if v]


def _int_at_least(value, low: int) -> bool:
    # JSON true and false are bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def resolve_common(args, cfg: dict) -> dict:
    out_dir = args.out or cfg.get("out_dir") or os.environ.get("SFUDA_OUT_DIR") or "sfuda-out"
    fmt = args.format or cfg.get("format", "csv")
    if fmt not in ("csv", "tsv"):
        raise CliError(f"format must be csv or tsv, not {fmt!r}")
    if args.seed is not None and args.seeds is not None:
        raise CliError("give either --seed or --seeds, not both")
    if args.seed is not None:
        seeds = [args.seed]
    elif args.seeds is not None:
        seeds = parse_seeds(args.seeds)
    else:
        seeds = cfg.get("seeds", [0])
        if not isinstance(seeds, list):
            raise CliError(f"seeds must be a list of integers, not {seeds!r}")
    if not seeds:
        raise CliError("no seeds selected")
    for i, seed in enumerate(seeds):
        if not _int_at_least(seed, 0):
            raise CliError(f"seeds must be nonnegative integers, not {seed!r}")
        if seed in seeds[:i]:
            raise CliError(f"seed {seed} is given more than once")
    jobs = args.jobs if args.jobs is not None else cfg.get("jobs", 1)
    if not _int_at_least(jobs, 1):
        raise CliError(f"jobs must be a positive integer, not {jobs!r}")
    return {"out_dir": out_dir, "format": fmt, "seeds": seeds, "jobs": jobs}


@dataclass
class Generate(Section):
    """data.generate: gen_gaussian_pair's arguments; shift is a ShiftSpec section."""

    num_classes: int
    dim: int
    n_per_class: int
    class_sep: float
    seed: int = 0
    shift: dict = field(default_factory=dict)


@dataclass
class TargetFile(Section):
    """data.target: embeddings and labels files; num_classes defaults to the source's."""

    features: str
    labels: str
    num_classes: int | None = None
    name: str = "target"


@dataclass
class SourceFile(TargetFile):
    name: str = "source"


@dataclass
class Distgrid(Section):
    """distgrid: methods run in each worker layout of cells ("WxB"; the default
    grid when empty)."""

    methods: list[str] = field(default_factory=lambda: list(ADAPT_METHODS))
    cells: list[str] = field(default_factory=list)
    sync_batchnorm: bool = False


@dataclass
class Sweep(Section):
    """sweep: every combination of params (name -> values) of method's config."""

    method: str
    params: dict
    task: str = SFUDA_TASK


def _section(cls, raw, ctx: str):
    """cls (a Section) built from the config section raw, its keys checked
    against cls's fields and every field without a default given; an error
    names ctx first. A LoopConfig's seed derives from each record's seed."""
    fields = dataclasses.fields(cls)
    _check_keys(raw, {f.name for f in fields}, ctx)
    for f in fields:
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise CliError(f"{ctx} needs {f.name}")
    if issubclass(cls, LoopConfig) and "seed" in raw:
        raise CliError(f"{ctx}: seed is derived from each record's seed")
    with _named(ctx):
        return cls(**raw)


def _known_methods(methods: list[str], ctx: str) -> None:
    """Raises naming ctx at the first method the harness does not run."""
    for m in methods:
        if m not in METHODS:
            raise CliError(f"{ctx}: unknown method {m!r}")


def _known_tasks(tasks: list[str], ctx: str) -> None:
    """Raises naming ctx at the first task the harness does not run."""
    for t in tasks:
        if t not in TASKS:
            raise CliError(f"{ctx}: unknown task {t!r}, expected one of {tuple(TASKS)}")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def datasets_from_config(cfg: dict) -> tuple[DomainDataset, DomainDataset, dict[str, str]]:
    """cfg's (source, target) pair, and path -> sha256 of each file read."""
    data = cfg.get("data", {})
    _check_keys(data, {"generate", "source", "target"}, "data")
    if set(data) not in ({"generate"}, {"source", "target"}):
        raise CliError("data needs either 'generate' or both 'source' and 'target'")
    if "generate" in data:
        gen = _section(Generate, data["generate"], "data.generate")
        shift = _section(ShiftSpec, gen.shift, "data.generate.shift")
        with _named("data.generate"):
            return *gen_gaussian_pair(gen.num_classes, gen.dim, gen.n_per_class,
                                      float(gen.class_sep), shift, make_rng(gen.seed)), {}
    # both sides typed before open(), which takes an int as a file descriptor
    src = _section(SourceFile, data["source"], "data.source")
    tgt = _section(TargetFile, data["target"], "data.target")
    source = load_embeddings(src.features, src.labels, src.num_classes, src.name)
    num_classes = source.num_classes if tgt.num_classes is None else tgt.num_classes
    target = load_embeddings(tgt.features, tgt.labels, num_classes, tgt.name)
    paths = [src.features, src.labels, tgt.features, tgt.labels]
    return source, target, {p: _sha256(p) for p in paths}


def _method_configs(cfg: dict) -> dict:
    """Every adapter's config, from its method_configs entry (all entries are
    checked, whichever methods run)."""
    section = cfg.get("method_configs", {})
    _check_keys(section, set(ADAPT_METHODS), "method_configs")
    return {m: _section(cls, section.get(m, {}), f"method_configs.{m}")
            for m, (cls, _) in ADAPT_METHODS.items()}


def _head_and_train(cfg: dict, norm_kind: str) -> dict:
    """The head section, norm_kind defaulting per command, and the
    first-transfer TrainConfig, as TaskSpec keywords. Every command checks
    its head values here, so an error names the head section the same way."""
    head = cfg.get("head", {})
    _check_keys(head, {"hidden_dim", "norm_kind", "activation"}, "head")
    head = {"norm_kind": norm_kind, **head}
    with _named("head"):
        HeadConfig(1, 1, **head)
    return {**head, "train": _section(TrainConfig, cfg.get("train", {}), "train")}


def _check_suite_names(cfg: dict) -> None:
    """The suite's task and method names, checked before any data is read."""
    tasks, methods = cfg.get("tasks", []), cfg.get("methods", [])
    if not tasks:
        raise CliError("config needs a nonempty 'tasks' list")
    _known_tasks(tasks, "tasks")
    _known_methods(methods, "methods")
    for task in tasks:
        if TASKS[task][1] == "sfuda" and not methods:
            raise CliError(f"task {task} needs a 'methods' list")


def build_specs(cfg: dict, source: DomainDataset, target: DomainDataset,
                ) -> list[TaskSpec]:
    """One spec per task, and per method for an SFUDA task; the names are
    those _check_suite_names passed."""
    methods = cfg.get("methods", [])
    common = dict(target=target, source=source, **_head_and_train(cfg, "layernorm"))
    method_configs = _method_configs(cfg)
    return [TaskSpec(task=task, method=m, method_config=method_configs.get(m), **common)
            for task in cfg["tasks"]
            for m in (methods if TASKS[task][1] == "sfuda" else [None])]


def config_hash(cfg: dict, common: dict) -> str:
    """sha256 of cfg, less out_dir and jobs, with the run's seeds and format
    (counted once, as resolved, whether or not cfg names them). A path of a
    file the command read (common["files"]: path -> sha256) counts as the
    file's digest: the hash follows contents, not paths."""
    files = common.get("files", {})

    def contents(v):
        if isinstance(v, dict):
            return {k: contents(x) for k, x in v.items()}
        if isinstance(v, list):
            return [contents(x) for x in v]
        return files.get(v, v) if isinstance(v, str) else v

    payload = {k: contents(v) for k, v in cfg.items()
               if k not in ("out_dir", "jobs", "seeds", "format")}
    payload["_seeds"] = common["seeds"]
    payload["_format"] = common["format"]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _table(rows: list[dict], columns: list[str], fmt: str, stamp: str) -> str:
    delim = "," if fmt == "csv" else "\t"
    buf = io.StringIO()
    buf.write(stamp)
    writer = csv.writer(buf, delimiter=delim, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return buf.getvalue()


def _fmt_float(v: float) -> str:
    if isinstance(v, float) and not np.isfinite(v):
        return "nan"
    return repr(float(v))


RECORD_COLUMNS = ["task", "method", "source", "target", "norm_kind", "seed",
                  "accuracy", "baseline_lp_odg", "delta", "failed", "error"]


def _record_rows(records: list[ExperimentRecord]) -> list[dict]:
    return [{"task": r.task, "method": r.method or "", "source": r.source_name,
             "target": r.target_name, "norm_kind": r.norm_kind, "seed": r.seed,
             "accuracy": _fmt_float(r.accuracy),
             "baseline_lp_odg": _fmt_float(r.baseline_lp_odg),
             "delta": _fmt_float(r.delta), "failed": int(r.failed), "error": r.error or ""}
            for r in records]


def _blas_build() -> str:
    """numpy's BLAS as "name version"; "unknown" where numpy predates
    show_config(mode="dicts") or does not report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _manifest(cfg: dict, common: dict, chash: str, command: str,
              datasets: dict[str, DomainDataset] | None = None) -> str:
    """manifest.json: cfg, with the run's resolved seeds and format, and its
    provenance, so that the manifest given as --config re-runs the command
    with no flag. provenance is not hashed: the numeric environment is
    recorded, not compared. It includes the compute dtype of each of the
    datasets (role -> dataset) the records ran on, and the path and sha256
    of each file the command read."""
    prov = {"toolkit_version": __version__, "config_sha256": chash, "command": command,
            "seeds": common["seeds"], "format": common["format"], "numpy": np.__version__,
            "blas": _blas_build()}
    if common.get("files"):
        prov["files"] = common["files"]
    if datasets:
        prov["compute_dtype"] = {role: str(ds.features.dtype) for role, ds in datasets.items()}
    doc = {"config": {**cfg, "seeds": common["seeds"], "format": common["format"]},
           "provenance": prov}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(out_dir: str, files: dict[str, str | bytes]) -> list[str]:
    """Writes files into out_dir, each under a temporary name, renamed into
    place once all are written; a file a rename replaces is linked to a backup
    name until every rename is done. On failure the temporaries go, each
    renamed file is put back as it was (removed, where it is new), and
    out_dir goes too if this call made it, so earlier outputs stay intact."""
    created = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    paths, staged, moved = [], [], []  # moved: (path, its backup or None)
    try:
        for name, content in files.items():
            path = os.path.join(out_dir, name)
            if os.path.isdir(path):  # checked now, as os.replace would fail late
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            staged.append(os.path.join(out_dir, f".{name}.{os.getpid()}.tmp"))
            with open(staged[-1], "wb" if isinstance(content, bytes) else "w") as fh:
                fh.write(content)
            paths.append(path)
        for tmp, path in zip(staged, paths):
            backup = tmp + ".old" if os.path.lexists(path) else None
            if backup:
                _remove([backup])
                os.link(path, backup, follow_symlinks=False)
            moved.append((path, backup))
            os.replace(tmp, path)
    except BaseException:
        for path, backup in reversed(moved):
            if backup:
                with contextlib.suppress(OSError):
                    os.replace(backup, path)
                    _remove([backup])  # left by a no-op rename: path never replaced
        _remove([path for path, backup in moved if not backup] + staged)
        if created:  # holds nothing but what this call wrote
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    _remove([backup for _, backup in moved if backup])
    return paths


def _remove(paths: list[str]) -> None:
    for path in paths:
        with contextlib.suppress(OSError):
            os.unlink(path)


def _write(cfg: dict, common: dict, command: str, tables: dict,
           datasets: dict | None = None) -> list[str]:
    """Each table (name -> (rows, columns)) as name.FORMAT, stamped with
    cfg's config hash, then manifest.json for cfg and the datasets (see
    _manifest)."""
    chash = config_hash(cfg, common)
    fmt, stamp = common["format"], f"# sfuda {__version__} config {chash[:12]}\n"
    files = {f"{name}.{fmt}": _table(rows, columns, fmt, stamp)
             for name, (rows, columns) in tables.items()}
    files["manifest.json"] = _manifest(cfg, common, chash, command, datasets)
    return _emit(common["out_dir"], files)


def _write_records(cfg: dict, common: dict, command: str, datasets: tuple,
                   records: list[ExperimentRecord], keys: list[dict],
                   tables: dict | None = None, noun: str = "records",
                   label=None) -> list[str]:
    """records.FORMAT, with RECORD_COLUMNS and then the key columns (keys
    holds one dict per spec, in run_suite's order), next to the command's
    summary tables, written by _write with the (source, target) datasets
    the records ran on. When records raised, the outputs
    stay complete and a CliError says how many of the noun did, naming the
    first as label(key, record) words it, or else pointing at the error column."""
    per_record = [key for key in keys for _ in common["seeds"]]  # specs are seed-minor
    rows = [{**row, **key} for row, key in zip(_record_rows(records), per_record)]
    columns = RECORD_COLUMNS + list(keys[0] if keys else ())
    paths = _write(cfg, common, command, {"records": (rows, columns), **(tables or {})},
                   datasets=dict(zip(("source", "target"), datasets)))
    raised = [(key, r) for key, r in zip(per_record, records) if r.error is not None]
    if raised:
        key, r = raised[0]
        where = (f"first: {label(key, r)}" if label
                 else f"see the error column of records.{common['format']}")
        raise CliError(f"{len(raised)} of {len(records)} {noun} raised ({where})")
    return paths


def cmd_gen_data(args, cfg: dict, common: dict) -> list[str]:
    if isinstance(cfg.get("data"), dict) and set(cfg["data"]) == {"source", "target"}:
        raise CliError("data: gen-data needs a generate section, not files")  # before any file opens
    source, target, _ = datasets_from_config(cfg)
    chash = config_hash(cfg, common)
    files = {
        "source_features.bin": embeddings_bytes(source),
        "source_labels.txt": labels_text(source),
        "target_features.bin": embeddings_bytes(target),
        "target_labels.txt": labels_text(target),
        "gen_manifest.json": _manifest(cfg, common, chash, "gen-data"),
    }
    paths = _emit(common["out_dir"], files)
    print(f"wrote {source.n}+{target.n} samples ({source.d}-d, "
          f"{source.num_classes} classes) to {common['out_dir']}")
    return paths


def cmd_run(args, cfg: dict, common: dict) -> list[str]:
    _check_suite_names(cfg)
    *datasets, common["files"] = datasets_from_config(cfg)
    specs = build_specs(cfg, *datasets)
    if len(specs) != 1:
        raise CliError(f"run expects exactly one task/method, got {len(specs)}; use suite")
    if len(common["seeds"]) != 1:
        raise CliError("run expects exactly one seed; use suite for sweeps")
    rec, = records = run_suite(specs, common["seeds"])
    status = "raised" if rec.error else "FAILED" if rec.failed else "ok"
    print(f"{rec.task}{'/' + rec.method if rec.method else ''} seed {rec.seed}: "
          f"accuracy {rec.accuracy:.2f} (baseline {rec.baseline_lp_odg:.2f}, {status})")
    return _write_records(cfg, common, "run", datasets, records, [{}])


def cmd_suite(args, cfg: dict, common: dict) -> list[str]:
    _check_suite_names(cfg)
    *datasets, common["files"] = datasets_from_config(cfg)
    specs = build_specs(cfg, *datasets)
    records = run_suite(specs, common["seeds"], jobs=common["jobs"])
    rows = []
    for group in spec_groups(records, len(common["seeds"])):
        mean, std, n = mean_std(group)
        summary = format_mean_std(mean, std, n) if n else "no successful runs"
        rows.append({**_record_rows(group[:1])[0], "n_seeds": len(group), "n_ok": n,
                     "mean": _fmt_float(mean), "std": _fmt_float(std), "summary": summary})
        label = group[0].task + (f"/{group[0].method}" if group[0].method else "")
        print(f"{label:>16s}  {summary}")
    return _write_records(cfg, common, "suite", datasets, records, [{}] * len(specs), {
        "aggregates": (rows, ["task", "method", "source", "target", "norm_kind", "n_seeds",
                              "n_ok", "mean", "std", "summary"])})


def cmd_distgrid(args, cfg: dict, common: dict) -> list[str]:
    grid = _section(Distgrid, cfg.get("distgrid", {}), "distgrid")
    with _named("distgrid"):
        cells = [replace(c, sync_batchnorm=grid.sync_batchnorm)
                 for c in [parse_cell(c) for c in grid.cells] or DEFAULT_GRID]
    with _named("distgrid.cells"):
        check_cells(cells)
    if not grid.methods:
        raise CliError("distgrid: methods must be a nonempty list")
    _known_methods(grid.methods, "distgrid.methods")
    if unshardable := [m for m in grid.methods if m not in ADAPT_METHODS]:  # before any file opens
        raise CliError(f"distgrid.methods: {unshardable[0]} {NO_GRADIENT_LOOP}")
    source, target, common["files"] = datasets_from_config(cfg)
    settings = _head_and_train(cfg, "batchnorm")
    specs = grid_specs(grid.methods, source, target, cells, _method_configs(cfg), **settings)
    records = run_suite(specs, common["seeds"], jobs=common["jobs"])

    # one row per cell, one column per method; specs are method-major
    rows = [cell_columns(c) for c in cells]
    for i, group in enumerate(spec_groups(records, len(common["seeds"]))):
        mean, std, _ = mean_std(group, skip_raised=False)
        rows[i % len(cells)][specs[i].method] = f"{mean:.2f} ± {std:.2f}"
    for row in rows:
        print("  ".join([f"{row['cell']:>6s}"] + [f"{row[m]:>16s}" for m in grid.methods]))
    return _write_records(cfg, common, "distgrid", (source, target), records,
                          [cell_columns(s.dist) for s in specs],
                          {"distgrid": (rows, ["cell", "workers", "local_batch"] + grid.methods)},
                          "grid records", grid_error)


def cmd_sweep(args, cfg: dict, common: dict) -> list[str]:
    sweep = _section(Sweep, cfg.get("sweep", {}), "sweep")
    _known_tasks([sweep.task], "sweep.task")
    if TASKS[sweep.task][1] != "sfuda":
        raise CliError(f"sweep.task: {sweep.task} does not take a method")
    _known_methods([sweep.method], "sweep.method")
    source, target, common["files"] = datasets_from_config(cfg)
    settings = _head_and_train(cfg, "layernorm")
    # method_configs gives the settings the sweep does not vary
    spec = TaskSpec(task=sweep.task, method=sweep.method, target=target, source=source,
                    method_config=_method_configs(cfg).get(sweep.method), **settings)
    specs, keys = hyperparameter_grid(sweep.params, spec)
    records = run_suite(specs, common["seeds"], jobs=common["jobs"])

    def combo(key):
        return ", ".join(f"{n}={v}" for n, v in key.items())

    rows = []
    for key, group in zip(keys, spec_groups(records, len(common["seeds"]))):
        mean, _, n = mean_std(group)
        rows.append({**key, "mean": _fmt_float(mean), "n_ok": n, "n_total": len(group)})
        print(f"{combo(key):>32s}  mean {mean:.2f}")
    return _write_records(cfg, common, "sweep", (source, target), records, keys,
                          {"sweep": (rows, list(sweep.params) + ["mean", "n_ok", "n_total"])},
                          "sweep records", lambda key, r: f"{combo(key)} seed {r.seed}: {r.error}")


def cmd_stats(args, cfg: dict, common: dict) -> list[str]:
    table_path = args.table or cfg.get("results_table")
    if not table_path:
        raise CliError("stats needs a results table (positional argument or config)")
    table = load_results_table(table_path)
    common["files"] = {table_path: _sha256(table_path)}
    tasks = sorted({r.task for r in table.rows})

    rows = []
    for task in tasks + [None]:
        label = task if task is not None else "ALL"
        try:
            lin = fit_linear(table, task)
            mlin = fit_multilinear(table, task)
        except ValueError as e:
            print(f"{label}: skipped ({e})")
            continue
        rows.append({
            "task": label,
            "n": lin.n,
            "m": _fmt_float(mlin.m), "q": _fmt_float(mlin.q),
            "delta_m": _fmt_float(mlin.delta_m), "delta_q": _fmt_float(mlin.delta_q),
            "lin_adj_r2": _fmt_float(lin.adj_r2),
            "mlin_adj_r2": _fmt_float(mlin.adj_r2),
        })
        print(f"{label}: lin adj_r2 {lin.adj_r2:.3f}  mlin adj_r2 {mlin.adj_r2:.3f}  "
              f"(m {mlin.m:.3f}, q {mlin.q:.2f}, dm {mlin.delta_m:.3f}, dq {mlin.delta_q:.2f})")
    return _write({**cfg, "results_table": table_path}, common, "stats",
                  {"stats": (rows, ["task", "n", "m", "q", "delta_m", "delta_q",
                                    "lin_adj_r2", "mlin_adj_r2"])})


def _read_records(path: str) -> tuple[list[str], list[ExperimentRecord], list[dict]]:
    """A records table's columns (RECORD_COLUMNS, then any key columns),
    its records, and each row's fields by column."""
    lines = read_table(path)
    columns = lines[0][1] if lines else []
    keys = columns[len(RECORD_COLUMNS):]
    # a key column names a by_KEY table, so it must be a distinct identifier
    if (columns[:len(RECORD_COLUMNS)] != RECORD_COLUMNS or len(set(columns)) != len(columns)
            or not all(k.isidentifier() for k in keys)):
        raise CliError(f"{path}: not a records table")
    records, rows = [], []
    for lineno, fields in lines[1:]:
        try:
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, not {len(fields)}")
            row = dict(zip(columns, fields))
            if row["failed"] not in ("0", "1"):
                raise ValueError(f"failed must be 0 or 1, not {row['failed']!r}")
            records.append(ExperimentRecord(
                task=row["task"], method=row["method"] or None,
                source_name=row["source"], target_name=row["target"],
                norm_kind=row["norm_kind"], seed=int(row["seed"]),
                accuracy=float(row["accuracy"]),
                baseline_lp_odg=float(row["baseline_lp_odg"]),
                delta=float(row["delta"]), failed=row["failed"] == "1",
                wall_time=0.0, error=row["error"] or None))
        except ValueError as e:
            raise CliError(f"{path}: line {lineno}: {e}") from None
        rows.append(row)
    return columns, records, rows


def cmd_report(args, cfg: dict, common: dict) -> list[str]:
    paths = args.records or cfg.get("records", [])
    if not paths:
        raise CliError("report needs at least one records file")
    columns, records, rows = None, [], []
    for path in paths:
        file_columns, file_records, file_rows = _read_records(path)
        if columns not in (None, file_columns):
            raise CliError(f"{path}: its columns differ from those of {paths[0]}")
        columns = file_columns
        records.extend(file_records)
        rows.extend(file_rows)
    common["files"] = {path: _sha256(path) for path in paths}

    keys = columns[len(RECORD_COLUMNS):]
    tables = {}
    for group_by in ("norm_kind", "method", "task", *keys):
        groups, notes = failure_report(records, [row[group_by] for row in rows])
        floats = ("delta_mean", "delta_std", "failure_rate", "error_rate")
        tables[f"by_{group_by}"] = ([{**g, **{k: _fmt_float(g[k]) for k in floats}}
                                     for g in groups], ["group", "n", *floats])
        print(f"-- grouped by {group_by}")
        for g in groups:
            print(f"  {str(g['group']) or '(none)':>12s}  n={g['n']:<3d} "
                  f"delta {g['delta_mean']:+.2f} ± {g['delta_std']:.2f}  "
                  f"failures {g['failure_rate']:.1f}%  errors {g['error_rate']:.1f}%")
        for note in notes:
            print(f"  note: {note}")
    tables["points"] = ([{**row, **fmt} for row, fmt in zip(rows, _record_rows(records))],
                        ["task", "method", "norm_kind", "seed", "baseline_lp_odg",
                         "accuracy", "delta", "failed", *keys])
    return _write({"records": paths}, common, "report", tables)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfuda",
        description="Feature-space toolkit and benchmark harness for "
                    "source-free domain adaptation")
    parser.add_argument("--version", action="version", version=f"sfuda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="single seed")
        p.add_argument("--seeds", help="seed range A..B or comma list")
        p.add_argument("--jobs", type=int, help="worker processes for first transfers and records")
        p.add_argument("--out", help="output directory (default $SFUDA_OUT_DIR)")
        p.add_argument("--format", choices=("csv", "tsv"), help="table format")
        p.set_defaults(func=func)
        return p

    command("gen-data", cmd_gen_data, "generate a synthetic domain pair")
    command("run", cmd_run, "run one experiment")
    command("suite", cmd_suite, "run a task suite over seeds")
    command("distgrid", cmd_distgrid, "sharded-gradient degradation grid")
    command("sweep", cmd_sweep, "hyperparameter grid for one method")
    command("stats", cmd_stats, "fit accuracy-transfer regressions on a table").add_argument(
        "table", nargs="?", help="results table (backbone,top1,...)")
    command("report", cmd_report, "delta/failure tables from records files").add_argument(
        "records", nargs="*", help="records.csv files (default: the config's records)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        args.func(args, cfg, resolve_common(args, cfg))
    except BrokenPipeError:
        return 1
    except Exception as e:
        msg = " ".join(str(e).split()) or type(e).__name__
        print(f"error: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
