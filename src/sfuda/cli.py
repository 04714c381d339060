"""Command-line front end.

Subcommands: gen-data, run, suite, distgrid, sweep, stats, report. Runs are
driven by a JSON config (strictly validated, unknown keys rejected); flags
override file values. Every results file embeds the config hash and toolkit
version, outputs land only in the declared output directory, and a failed
command removes its partial outputs and exits nonzero with one error line.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np
import scipy

from . import __version__
from .core import make_rng
from .data import (DomainDataset, ShiftSpec, embeddings_bytes, gen_gaussian_pair,
                   labels_text, load_embeddings, load_results_table)
from .distsim import parse_cell, run_distributed_grids
from .engine import DEFAULT_GRID
from .harness import (ADAPT_METHODS, ExperimentRecord, SuiteResult, TaskSpec,
                      failure_report, hyperparameter_grid, run_suite, run_task)
from .head import TrainConfig
from .stats import fit_linear, fit_multilinear

SFUDA_TASKS = ("SFUDA", "FT-SFUDA")


class CliError(ValueError):
    pass


def _check_keys(d: dict, allowed: set[str], ctx: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise CliError(f"{ctx}: unknown key(s) {', '.join(unknown)}")


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
                      "results_table"}, "config")
    return raw


def parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise CliError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",") if v]


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
        seeds = list(cfg.get("seeds", [0]))
    if not seeds:
        raise CliError("no seeds selected")
    jobs = args.jobs if args.jobs is not None else int(cfg.get("jobs", 1))
    if jobs < 1:
        raise CliError("jobs must be positive")
    return {"out_dir": out_dir, "format": fmt, "seeds": seeds, "jobs": jobs}


def _shift_vector(v, d: int, name: str) -> np.ndarray:
    if isinstance(v, (int, float)):
        return np.full(d, float(v))
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (d,):
        raise CliError(f"{name} must be a scalar or a list of length {d}")
    return arr


def _shift_from_config(d: int, raw: dict) -> ShiftSpec:
    _check_keys(raw, {"mean_shift", "per_feature_scale", "per_feature_offset",
                      "rotation_angle", "rotation_plane", "label_noise"},
                "data.generate.shift")
    spec = ShiftSpec(
        mean_shift=_shift_vector(raw.get("mean_shift", 0.0), d, "mean_shift"),
        per_feature_scale=_shift_vector(raw.get("per_feature_scale", 1.0), d,
                                        "per_feature_scale"),
        per_feature_offset=_shift_vector(raw.get("per_feature_offset", 0.0), d,
                                         "per_feature_offset"),
        rotation_angle=float(raw.get("rotation_angle", 0.0)),
        rotation_plane=tuple(raw.get("rotation_plane", (0, 1))),
        label_noise=float(raw.get("label_noise", 0.0)),
    )
    spec.validate(d)
    return spec


def datasets_from_config(cfg: dict) -> tuple[DomainDataset, DomainDataset]:
    data = cfg.get("data")
    if not data:
        raise CliError("config needs a 'data' section")
    _check_keys(data, {"generate", "source", "target"}, "data")
    if "generate" in data:
        gen = data["generate"]
        _check_keys(gen, {"num_classes", "dim", "n_per_class", "class_sep",
                          "seed", "shift"}, "data.generate")
        for key in ("num_classes", "dim", "n_per_class", "class_sep"):
            if key not in gen:
                raise CliError(f"data.generate needs {key}")
        d = int(gen["dim"])
        shift = _shift_from_config(d, gen.get("shift", {}))
        rng = make_rng(int(gen.get("seed", 0)))
        return gen_gaussian_pair(int(gen["num_classes"]), d, int(gen["n_per_class"]),
                                 float(gen["class_sep"]), shift, rng)
    for side in ("source", "target"):
        if side not in data:
            raise CliError(f"data needs either 'generate' or both 'source' and 'target'")
        _check_keys(data[side], {"features", "labels", "num_classes", "name"},
                    f"data.{side}")
    src = data["source"]
    tgt = data["target"]
    if "labels" not in src:
        raise CliError("data.source needs a labels file")
    source = load_embeddings(src["features"], src["labels"],
                             src.get("num_classes"), src.get("name", "source"))
    target = load_embeddings(tgt["features"], tgt.get("labels"),
                             tgt.get("num_classes", source.num_classes),
                             tgt.get("name", "target"))
    return source, target


def _method_config(cfg: dict, method: str):
    if method not in ADAPT_METHODS:  # SCA has no config; runners reject unknown names
        return None
    cfg_cls, _ = ADAPT_METHODS[method]
    overrides = cfg.get("method_configs", {}).get(method, {})
    legal = {f.name for f in dataclasses.fields(cfg_cls)}
    _check_keys(overrides, legal, f"method_configs.{method}")
    return cfg_cls(**overrides)


def _head_and_train(cfg: dict, norm_kind: str) -> tuple[dict, TrainConfig | None]:
    """The validated head section as norm_kind/activation/hidden_dim keywords,
    norm_kind defaulting per command, and the first-transfer TrainConfig
    (None when the train section is absent or empty)."""
    head = cfg.get("head", {})
    _check_keys(head, {"hidden_dim", "norm_kind", "activation"}, "head")
    train_raw = cfg.get("train", {})
    _check_keys(train_raw, {f.name for f in dataclasses.fields(TrainConfig)}, "train")
    return ({"norm_kind": head.get("norm_kind", norm_kind),
             "activation": head.get("activation", "relu"),
             "hidden_dim": int(head.get("hidden_dim", 256))},
            TrainConfig(**train_raw) if train_raw else None)


def build_specs(cfg: dict, source: DomainDataset, target: DomainDataset,
                ) -> list[TaskSpec]:
    tasks = cfg.get("tasks")
    if not tasks:
        raise CliError("config needs a nonempty 'tasks' list")
    head, train = _head_and_train(cfg, "layernorm")
    common = dict(target=target, source=source, train=train, **head)
    methods = cfg.get("methods", [])

    specs = []
    for task in tasks:
        if task in SFUDA_TASKS:
            if not methods:
                raise CliError(f"task {task} needs a 'methods' list")
            for method in methods:
                specs.append(TaskSpec(task=task, method=method,
                                      method_config=_method_config(cfg, method),
                                      **common))
        else:
            specs.append(TaskSpec(task=task, **common))
    return specs


def config_hash(cfg: dict, common: dict) -> str:
    payload = {k: v for k, v in cfg.items() if k not in ("out_dir", "jobs")}
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
    rows = []
    for r in records:
        rows.append({
            "task": r.task, "method": r.method or "", "source": r.source_name,
            "target": r.target_name, "norm_kind": r.norm_kind, "seed": r.seed,
            "accuracy": _fmt_float(r.accuracy),
            "baseline_lp_odg": _fmt_float(r.baseline_lp_odg),
            "delta": _fmt_float(r.delta), "failed": int(r.failed),
            "error": r.error or "",
        })
    return rows


def _stamp(chash: str) -> str:
    return f"# sfuda {__version__} config {chash[:12]}\n"


def _blas_build() -> str:
    """numpy's BLAS as "name version"; "unknown" where numpy predates
    show_config(mode="dicts") or does not report it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _manifest(cfg: dict, common: dict, chash: str, command: str) -> str:
    # provenance is not hashed: the numeric environment is recorded, not compared
    doc = {"config": cfg,
           "provenance": {"toolkit_version": __version__, "config_sha256": chash,
                          "command": command, "seeds": common["seeds"],
                          "format": common["format"], "numpy": np.__version__,
                          "scipy": scipy.__version__, "blas": _blas_build()}}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(out_dir: str, files: dict[str, str | bytes]) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    try:
        for name, content in files.items():
            path = os.path.join(out_dir, name)
            with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
                fh.write(content)
            written.append(path)
    except BaseException:
        for p in written:
            try:
                os.unlink(p)
            except OSError:
                pass
        raise
    return written


def _write(cfg: dict, common: dict, command: str, tables: dict,
           chash: str | None = None) -> list[str]:
    """Each table (name -> (rows, columns)) as name.FORMAT, stamped with
    chash (default: cfg's config hash), then manifest.json for cfg."""
    chash = chash or config_hash(cfg, common)
    fmt = common["format"]
    files = {f"{name}.{fmt}": _table(rows, columns, fmt, _stamp(chash))
             for name, (rows, columns) in tables.items()}
    files["manifest.json"] = _manifest(cfg, common, chash, command)
    return _emit(common["out_dir"], files)


def cmd_gen_data(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    data = cfg.get("data", {})
    if "generate" not in data:
        raise CliError("gen-data needs a data.generate section")
    source, target = datasets_from_config(cfg)
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


def _suite_tables(result: SuiteResult) -> dict:
    tables = {"records": (_record_rows(result.records), RECORD_COLUMNS)}
    if result.aggregates:
        tables["aggregates"] = (
            [{**a, "mean": _fmt_float(a["mean"]), "std": _fmt_float(a["std"])}
             for a in result.aggregates],
            ["task", "method", "source", "target", "norm_kind", "n_seeds", "n_ok",
             "mean", "std", "summary"])
    return tables


def cmd_run(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    source, target = datasets_from_config(cfg)
    specs = build_specs(cfg, source, target)
    if len(specs) != 1:
        raise CliError(f"run expects exactly one task/method, got {len(specs)}; use suite")
    if len(common["seeds"]) != 1:
        raise CliError("run expects exactly one seed; use suite for sweeps")
    rec = run_task(replace(specs[0], seed=common["seeds"][0]))
    paths = _write(cfg, common, "run", _suite_tables(SuiteResult([rec])))
    print(f"{rec.task}{'/' + rec.method if rec.method else ''} seed {rec.seed}: "
          f"accuracy {rec.accuracy:.2f} (baseline {rec.baseline_lp_odg:.2f}, "
          f"{'FAILED' if rec.failed else 'ok'})")
    return paths


def cmd_suite(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    source, target = datasets_from_config(cfg)
    specs = build_specs(cfg, source, target)
    result = run_suite(specs, common["seeds"], jobs=common["jobs"])
    paths = _write(cfg, common, "suite", _suite_tables(result))
    for agg in result.aggregates:
        label = agg["task"] + (f"/{agg['method']}" if agg["method"] else "")
        print(f"{label:>16s}  {agg['summary']}")
    errors = sum(r.error is not None for r in result.records)
    if errors:
        # the outputs are complete; the exit status still reports the errors
        raise CliError(f"{errors} of {len(result.records)} records raised "
                       f"(see the error column of records.{common['format']})")
    return paths


def cmd_distgrid(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    source, target = datasets_from_config(cfg)
    section = cfg.get("distgrid", {})
    _check_keys(section, {"methods", "cells", "sync_batchnorm"}, "distgrid")
    methods = section.get("methods", list(ADAPT_METHODS))
    cells = [parse_cell(c) for c in section.get("cells", [])] or list(DEFAULT_GRID)
    if section.get("sync_batchnorm"):
        cells = [replace(c, sync_batchnorm=True) for c in cells]
    head, train = _head_and_train(cfg, "batchnorm")
    results, errors = run_distributed_grids(
        methods, source, target, cells, common["seeds"], train_cfg=train,
        method_cfgs={m: _method_config(cfg, m) for m in methods},
        jobs=common["jobs"], **head)

    rows = []
    for i, cell in enumerate(cells):
        row = {"cell": cell.label, "workers": cell.workers,
               "local_batch": cell.local_batch}
        for res in results:
            r = res.rows[i]
            row[res.method] = f"{r['mean']:.2f} ± {r['std']:.2f}"
        rows.append(row)
    paths = _write(cfg, common, "distgrid",
                   {"distgrid": (rows, ["cell", "workers", "local_batch"] + methods)})
    for row in rows:
        print("  ".join([f"{row['cell']:>6s}"] + [f"{row[m]:>16s}" for m in methods]))
    if errors:
        # the outputs are complete; the exit status still reports the errors
        total = len(methods) * len(cells) * len(common["seeds"])
        raise CliError(f"{len(errors)} of {total} grid records raised (first: {errors[0]})")
    return paths


def cmd_sweep(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    section = cfg.get("sweep")
    if not section:
        raise CliError("sweep needs a 'sweep' config section")
    _check_keys(section, {"method", "params", "task"}, "sweep")
    method = section.get("method")
    params = section.get("params")
    if not method or not params:
        raise CliError("sweep needs 'method' and 'params'")
    if not isinstance(params, dict):
        raise CliError("sweep.params must map parameter names to lists of values")
    source, target = datasets_from_config(cfg)
    head, train = _head_and_train(cfg, "layernorm")
    spec = TaskSpec(task=section.get("task", "SFUDA"), method=method, target=target,
                    source=source, train=train, **head)
    grid = hyperparameter_grid(method, params, [spec], common["seeds"], common["jobs"])

    names = grid["params"]
    rows = [{**{n: row["combo"][n] for n in names},
             "mean": _fmt_float(row["mean"]), "n_ok": row["n_ok"],
             "n_total": row["n_total"]} for row in grid["rows"]]
    paths = _write(cfg, common, "sweep",
                   {"sweep": (rows, names + ["mean", "n_ok", "n_total"])})
    for row in rows:
        combo = ", ".join(f"{n}={row[n]}" for n in names)
        print(f"{combo:>32s}  mean {float(row['mean']):.2f}")
    return paths


def cmd_stats(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    table_path = args.table or cfg.get("results_table")
    if not table_path:
        raise CliError("stats needs a results table (positional argument or config)")
    table = load_results_table(table_path)
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


def _read_records(path: str) -> list[ExperimentRecord]:
    with open(path, newline="") as fh:
        first = fh.readline()
        delim = "\t" if "\t" in first else ","
        fh.seek(0)
        reader = csv.DictReader((ln for ln in fh if not ln.startswith("#")),
                                delimiter=delim)
        if reader.fieldnames is None or list(reader.fieldnames) != RECORD_COLUMNS:
            raise CliError(f"{path}: not a records table")
        out = []
        for row in reader:
            out.append(ExperimentRecord(
                task=row["task"], method=row["method"] or None,
                source_name=row["source"], target_name=row["target"],
                norm_kind=row["norm_kind"], seed=int(row["seed"]),
                accuracy=float(row["accuracy"]),
                baseline_lp_odg=float(row["baseline_lp_odg"]),
                delta=float(row["delta"]), failed=bool(int(row["failed"])),
                wall_time=0.0, manifest={}, error=row["error"] or None))
    return out


def cmd_report(args) -> list[str]:
    cfg = load_config(args.config)
    common = resolve_common(args, cfg)
    if not args.records:
        raise CliError("report needs at least one records file")
    records, digests = [], []
    for path in args.records:
        records.extend(_read_records(path))
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())

    tables = {}
    for group_by in ("norm_kind", "method", "task"):
        rows, notes = failure_report(records, group_by)
        floats = ("delta_mean", "delta_std", "failure_rate", "error_rate")
        tables[f"by_{group_by}"] = ([{**r, **{k: _fmt_float(r[k]) for k in floats}}
                                     for r in rows], ["group", "n", *floats])
        print(f"-- grouped by {group_by}")
        for r in rows:
            print(f"  {str(r['group']) or '(none)':>12s}  n={r['n']:<3d} "
                  f"delta {r['delta_mean']:+.2f} ± {r['delta_std']:.2f}  "
                  f"failures {r['failure_rate']:.1f}%  errors {r['error_rate']:.1f}%")
        for note in notes:
            print(f"  note: {note}")
    point_rows = [{"task": r.task, "method": r.method or "", "norm_kind": r.norm_kind,
                   "seed": r.seed, "baseline_lp_odg": _fmt_float(r.baseline_lp_odg),
                   "accuracy": _fmt_float(r.accuracy), "delta": _fmt_float(r.delta),
                   "failed": int(r.failed)} for r in records]
    tables["points"] = (point_rows, ["task", "method", "norm_kind", "seed",
                                     "baseline_lp_odg", "accuracy", "delta", "failed"])
    # provenance covers what the records say, not where they were read from
    return _write({"records": sorted(args.records)}, common, "report", tables,
                  config_hash({"records_sha256": digests}, common))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfuda",
        description="Feature-space toolkit and benchmark harness for "
                    "source-free domain adaptation")
    parser.add_argument("--version", action="version", version=f"sfuda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_flags(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="single seed")
        p.add_argument("--seeds", help="seed range A..B or comma list")
        p.add_argument("--jobs", type=int, help="worker processes for the records")
        p.add_argument("--out", help="output directory (default $SFUDA_OUT_DIR)")
        p.add_argument("--format", choices=("csv", "tsv"), help="table format")

    p = sub.add_parser("gen-data", help="generate a synthetic domain pair")
    common_flags(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="run one experiment")
    common_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", help="run a task suite over seeds")
    common_flags(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("distgrid", help="sharded-gradient degradation grid")
    common_flags(p)
    p.set_defaults(func=cmd_distgrid)

    p = sub.add_parser("sweep", help="hyperparameter grid for one method")
    common_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="fit accuracy-transfer regressions on a table")
    common_flags(p)
    p.add_argument("table", nargs="?", help="results table (backbone,top1,...)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="delta/failure tables from records files")
    common_flags(p)
    p.add_argument("records", nargs="*", help="records.csv files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as e:
        msg = " ".join(str(e).split()) or type(e).__name__
        print(f"error: {msg}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
