"""End-to-end benchmark of the `sfuda` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BENCHMARK.json runs distgrid-shard and suite-scale with S = 60: on a shared
2-core host the speed drifts by a fifth to a third over minutes, so every
invocation averages over as long a window as the benchmark's total time
allows.

Run from the root of a checkout. Each workload writes its config (and, for
suite-scale, its embeddings files) from the seed into a scratch directory
inside the checkout, then starts the CLI from `src/` in fresh processes:

1. one untimed start that imports the package and reports the environment;
2. a few set-up probes that stop at the first record or cell (`setup_s`);
3. timed runs, as many as fit in S seconds (at least one);
4. with `--trace 1`, one more run with span wrappers on every layer
   boundary (see `tracer.py`), whose per-layer totals are reported.

Every run's output table is checked (exit status, expected rows, empty
error column, internally consistent scores) and its sha256 must be equal
across all runs of one invocation; the hash is printed so that a change
shows. Human-readable lines come first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The scratch directory
is removed on exit.

Workloads (the data seed is always `--seed`):

- suite-demo: the README quick-start suite (5 classes, d=10) over run seeds
  0..2 with `--jobs 1`. The run everyone does first; small inputs, so
  per-call overhead and full-bank k-NN dominate. It is not in
  BENCHMARK.json: on a shared 2-core host its timings drift with the host
  by more than the 25% bound over a few minutes, and the time that the two
  kept workloads need at 60 s a run leaves no room for a third. Run it by
  hand to check the quick-start output (its seed-0 `records.csv`).
- distgrid-shard: the sharded-gradient grid of acceptance test 5 (8
  classes, d=12, batchnorm) for SHOT, NRC and AAD in cells 1x64 and 16x4.
  In 16x4 every step ranks an unchanged bank 16 times; SHOT is the control
  that never calls k-NN, AAD the only caller of background sampling.
- suite-scale: 65 classes, d=256, 4,030 rows per domain, read from files,
  batchnorm head with h=256, over run seeds 0..1 with `--jobs 2`. Head
  matmuls, repeated first transfers and the label pass dominate; k-NN is
  never called. OpenBLAS keeps its default thread count on purpose: the
  oversubscription of two workers is part of what this workload measures.

suite-demo and distgrid-shard run one thread of work on tiny matrices, so
their CLI processes get `OPENBLAS_NUM_THREADS=1`: with the library default,
idle BLAS threads spin on the second core, double `cpu_s` and make every
timing depend on whatever else the host runs. suite-scale runs with the
thread variables removed, so it always sees the library default.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCH = HERE / "launch.py"
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

RECORD_COLUMNS = ["task", "method", "source", "target", "norm_kind", "seed",
                  "accuracy", "baseline_lp_odg", "delta", "failed", "error"]
# name -> unit of the metrics in the result line. mean_accuracy_pct,
# failure_rate_pct and failed_ops_pct are printed above it only: the first two
# are set by the data seed, not by the code's speed, and failures are already
# the result line's `failed` count.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "records_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class TableCheck:
    problems: list[str]
    bad_records: int
    mean_accuracy: float
    failure_rate: float | None  # suites only


@dataclass(frozen=True)
class Workload:
    name: str
    cli_args: tuple[str, ...]
    table: str
    records: int
    write_inputs: Callable[[Path, int], None]
    check: Callable[[str], TableCheck]
    blas_threads: int | None  # None: the library default

    def child_env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        if self.blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(self.blas_threads)
        return env


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- inputs

def demo_inputs(work: Path, seed: int) -> None:
    _write_json(work / "config.json", {
        "data": {"generate": {
            "num_classes": 5, "dim": 10, "n_per_class": 60, "class_sep": 3.0,
            "seed": seed,
            "shift": {"mean_shift": 0.5, "per_feature_scale": 1.2,
                      "rotation_angle": 0.35}}},
        "tasks": ["LP-IDG", "LP-ODG", "FT-ODG", "SFUDA"],
        "methods": ["SHOT", "NRC"],
        "method_configs": {
            "SHOT": {"epochs": 25, "batch_size": 32, "learning_rate": 0.05},
            "NRC": {"epochs": 25, "batch_size": 32, "learning_rate": 0.05}},
        "head": {"hidden_dim": 32, "norm_kind": "layernorm"},
    })


GRID_METHODS = ["SHOT", "NRC", "AAD"]
GRID_CELLS = [("1x64", 1, 64), ("16x4", 16, 4)]


def grid_inputs(work: Path, seed: int) -> None:
    method_cfg = {"epochs": 12, "learning_rate": 0.1}
    _write_json(work / "config.json", {
        "data": {"generate": {
            "num_classes": 8, "dim": 12, "n_per_class": 40, "class_sep": 3.0,
            "seed": seed,
            "shift": {"mean_shift": 0.7, "per_feature_scale": 1.4}}},
        "distgrid": {"methods": GRID_METHODS, "cells": [c[0] for c in GRID_CELLS]},
        "method_configs": {m: dict(method_cfg) for m in GRID_METHODS},
        "head": {"hidden_dim": 32, "norm_kind": "batchnorm"},
    })


def _embeddings_file(path: Path, features) -> None:
    # the package's binary format: magic, rows, dims, flags, float32 payload
    n, d = features.shape
    path.write_bytes(struct.pack("<4sIII", b"SFUD", n, d, 0)
                     + features.astype("<f4").tobytes(order="C"))


def scale_inputs(work: Path, seed: int) -> None:
    """Gaussian class clusters drawn here, not by the package, so the inputs
    stay fixed when the package's own generator changes."""
    import numpy as np

    classes, dim, per_class, sep = 65, 256, 62, 6.0
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((classes, dim))
    means *= sep / np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.repeat(np.arange(classes), per_class)
    source = means[labels] + rng.standard_normal((labels.size, dim))
    target = means[labels] + rng.standard_normal((labels.size, dim))
    c, s = math.cos(0.35), math.sin(0.35)
    x0, x1 = target[:, 0].copy(), target[:, 1].copy()
    target[:, 0], target[:, 1] = c * x0 - s * x1, s * x0 + c * x1
    target = target * 1.2 + 0.1
    labels_text = "".join(f"{v}\n" for v in labels)
    for side, feats in (("source", source), ("target", target)):
        _embeddings_file(work / f"{side}_features.bin", feats)
        (work / f"{side}_labels.txt").write_text(labels_text)
    _write_json(work / "config.json", {
        "data": {side: {"features": f"{side}_features.bin",
                        "labels": f"{side}_labels.txt", "name": f"scale-{side}"}
                 for side in ("source", "target")},
        "tasks": ["LP-ODG", "FT-ODG", "SFUDA"],
        "methods": ["SCA", "SHOT", "PCSR"],
        "method_configs": {"SHOT": {"epochs": 5}, "PCSR": {"epochs": 5}},
        "train": {"epochs": 10},
        "head": {"hidden_dim": 256, "norm_kind": "batchnorm"},
    })


# ---------------------------------------------------------------- checks

def suite_check(specs: list[tuple[str, str]], seeds: list[int]) -> Callable[[str], TableCheck]:
    expected = [(task, method, seed) for task, method in specs for seed in seeds]

    def check(text: str) -> TableCheck:
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# sfuda "):
            return TableCheck(["missing '# sfuda' stamp line"], len(expected), math.nan, None)
        reader = csv.DictReader(lines[1:])
        rows = list(reader)
        if reader.fieldnames != RECORD_COLUMNS:
            return TableCheck([f"columns {reader.fieldnames}"], len(expected), math.nan, None)
        got = [(r["task"], r["method"], int(r["seed"])) for r in rows]
        if got != expected:
            return TableCheck([f"rows {got} != {expected}"], len(expected), math.nan, None)
        problems, bad, baselines = [], 0, {}
        for r, key in zip(rows, got):
            acc, base, delta = (float(r[k]) for k in ("accuracy", "baseline_lp_odg", "delta"))
            faults = []
            if r["error"]:
                faults.append(f"error {r['error']!r}")
            if not (0.0 <= acc <= 100.0 and 0.0 <= base <= 100.0):
                faults.append(f"accuracy {acc} or baseline {base} outside [0, 100]")
            if acc - base != delta:
                faults.append(f"delta {delta} != {acc} - {base}")
            if int(r["failed"]) != int(acc < base):
                faults.append(f"failed flag {r['failed']} for {acc} vs {base}")
            if key[0] == "LP-ODG" and acc != base:
                faults.append("LP-ODG accuracy differs from its own baseline")
            if baselines.setdefault(key[2], base) != base:
                faults.append("baseline differs between records of one seed")
            if faults:
                bad += 1
                problems.append(f"{'/'.join(map(str, key))}: {'; '.join(faults)}")
        accs = [float(r["accuracy"]) for r in rows]
        failures = sum(int(r["failed"]) for r in rows)
        return TableCheck(problems, bad, statistics.fmean(accs), 100.0 * failures / len(rows))

    return check


_CELL_VALUE = re.compile(r"^(\d+\.\d\d) ± (\d+\.\d\d)$")


def grid_check(text: str) -> TableCheck:
    lines = text.splitlines()
    total = len(GRID_CELLS) * len(GRID_METHODS)
    if not lines or not lines[0].startswith("# sfuda "):
        return TableCheck(["missing '# sfuda' stamp line"], total, math.nan, None)
    reader = csv.DictReader(lines[1:])
    rows = list(reader)
    if reader.fieldnames != ["cell", "workers", "local_batch"] + GRID_METHODS:
        return TableCheck([f"columns {reader.fieldnames}"], total, math.nan, None)
    got = [(r["cell"], int(r["workers"]), int(r["local_batch"])) for r in rows]
    if got != GRID_CELLS:
        return TableCheck([f"cells {got} != {GRID_CELLS}"], total, math.nan, None)
    problems, means = [], []
    for r in rows:
        for method in GRID_METHODS:
            m = _CELL_VALUE.match(r[method])
            if not m or not 0.0 <= float(m.group(1)) <= 100.0 or float(m.group(2)) != 0.0:
                problems.append(f"{r['cell']}/{method}: {r[method]!r}")
                continue
            means.append(float(m.group(1)))
    return TableCheck(problems, len(problems),
                      statistics.fmean(means) if means else math.nan, None)


WORKLOADS = {w.name: w for w in (
    Workload("suite-demo", ("suite", "--config", "config.json", "--seeds", "0..2",
                            "--jobs", "1"), "records.csv", 15, demo_inputs,
             suite_check([("LP-IDG", ""), ("LP-ODG", ""), ("FT-ODG", ""),
                          ("SFUDA", "SHOT"), ("SFUDA", "NRC")], [0, 1, 2]), 1),
    Workload("distgrid-shard", ("distgrid", "--config", "config.json", "--seeds", "0"),
             "distgrid.csv", len(GRID_CELLS) * len(GRID_METHODS), grid_inputs,
             grid_check, 1),
    Workload("suite-scale", ("suite", "--config", "config.json", "--seeds", "0..1",
                             "--jobs", "2"), "records.csv", 10, scale_inputs,
             suite_check([("LP-ODG", ""), ("FT-ODG", ""), ("SFUDA", "SCA"),
                          ("SFUDA", "SHOT"), ("SFUDA", "PCSR")], [0, 1]), None),
)}


# ---------------------------------------------------------------- runs

@dataclass
class Run:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    marks: dict
    out_dir: Path
    stderr: str


class Runner:
    """Starts the CLI in a child process and waits for it, within a deadline."""

    def __init__(self, work: Path, deadline: float, env: dict[str, str]):
        self.work = work
        self.deadline = deadline
        self.env = env
        self.count = 0

    def launch(self, extra: list[str], cli_args: list[str]) -> Run:
        self.count += 1
        tag = f"run{self.count}"
        out_dir = self.work / tag
        marks = self.work / f"{tag}.marks.json"
        cmd = [sys.executable, str(LAUNCH), "--marks", str(marks), *extra,
               "--", *cli_args, "--out", str(out_dir.name)]
        with open(self.work / f"{tag}.stdout", "wb") as out, \
                open(self.work / f"{tag}.stderr", "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.work, stdout=out, stderr=err,
                                    env=self.env)
            timer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            t1 = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        doc = json.loads(marks.read_text()) if marks.exists() else {}
        return Run(proc.returncode, t1 - t0, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0,
                   {k: v - t0 for k, v in doc.items()}, out_dir,
                   (self.work / f"{tag}.stderr").read_text(errors="replace"))

    def environment(self) -> dict:
        proc = subprocess.run([sys.executable, str(LAUNCH), "--environment"],
                              cwd=self.work, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"cannot start the package: {proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}; no percentile has 10 samples beyond it"
    i = n - 11
    return f"n={n}; p{100.0 * (i + 1) / n:.0f} {sorted(values)[i]!r}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "sfuda" / "cli.py").is_file():
        print(f"error: no sfuda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops its child and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    loadavg = os.getloadavg()
    wl = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        return measure(wl, args, work,
                       Runner(work, started + TIME_LIMIT_S, wl.child_env()), loadavg)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(wl: Workload, args, work: Path, runner: Runner, loadavg) -> int:
    wl.write_inputs(work, args.seed)
    env = {**runner.environment(), "loadavg_at_start": list(loadavg),
           "OPENBLAS_NUM_THREADS_in_runs": runner.env.get("OPENBLAS_NUM_THREADS",
                                                          "unset (library default)")}
    cli_args = list(wl.cli_args)

    setups = []
    for _ in range(SETUP_PROBES):
        probe = runner.launch(["--setup-only"], cli_args)
        if probe.code != 0 or "first_record" not in probe.marks:
            print(f"error: set-up probe failed: {probe.stderr.strip()}", file=sys.stderr)
            return 1
        setups.append(probe.marks["first_record"])

    timed: list[tuple[Run, TableCheck]] = []
    digests: set[str] = set()
    attempted = failed = 0
    problems: list[str] = []

    def full_run(extra: list[str]) -> tuple[Run, TableCheck] | None:
        nonlocal attempted, failed
        run = runner.launch(extra, cli_args)
        attempted += wl.records
        table = run.out_dir / wl.table
        if run.code != 0 or not table.is_file():
            failed += wl.records
            problems.append(f"exit {run.code}: {run.stderr.strip()[-300:]}")
            return None
        data = table.read_bytes()
        digests.add(hashlib.sha256(data).hexdigest())
        try:
            check = wl.check(data.decode())
        except (ValueError, KeyError) as e:
            check = TableCheck([f"unreadable table: {e}"], wl.records, math.nan, None)
        if len(digests) > 1:
            check.problems.append("output differs from an earlier run of this seed")
            check.bad_records = wl.records
        failed += check.bad_records
        problems.extend(check.problems)
        return run, check

    loop_start = time.monotonic()
    while True:
        result = full_run([])
        if result is None:
            break
        timed.append(result)
        setups.append(result[0].marks["first_record"])
        # start another run only if it should end within --seconds (and leave
        # room for the traced run before the deadline)
        typical = statistics.median(r.wall_s for r, _ in timed)
        next_end = time.monotonic() + typical
        if next_end - loop_start > args.seconds or next_end + args.trace * typical > runner.deadline:
            break
    if not timed:
        print(f"error: no timed run completed: {problems}", file=sys.stderr)
        return 1

    runs = [r for r, _ in timed]
    walls = [r.wall_s for r in runs]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "records_per_s": statistics.median(
            wl.records / (r.wall_s - r.marks["first_record"]) for r in runs),
        "cpu_s": statistics.median(r.cpu_s for r in runs),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    notes = {"wall_s": f"{percentile_note(walls)}; samples {walls}",
             "setup_s": f"n={len(setups)}; samples {setups}"}

    layer = None
    if args.trace:
        spans_path = work / "spans.json"
        traced = full_run(["--trace", str(spans_path)])
        if traced is not None:
            layer, detail = tracer.summarize(json.loads(spans_path.read_text()))
            layer["tracing.overhead_s"] = traced[0].marks["main_end"] - statistics.median(
                r.marks["main_end"] for r in runs)

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"output {wl.table} sha256 {' '.join(sorted(digests))} "
          f"({'identical' if len(digests) == 1 else 'DIFFERS'} across {attempted // wl.records} runs)")
    print(f"output check {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  problem: {p}")
    print(f"end-to-end (untraced; medians of {len(runs)} timed runs)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<20s} {e2e[name]!r} {unit}  {notes.get(name, '')}".rstrip())
    first = timed[0][1]
    print(f"  {'mean_accuracy_pct':<20s} {first.mean_accuracy!r} %")
    if first.failure_rate is not None:
        print(f"  {'failure_rate_pct':<20s} {first.failure_rate!r} %")
    print(f"  {'failed_ops_pct':<20s} {100.0 * failed / attempted!r} %")
    if layer is not None:
        report_layers(wl, layer, detail)

    if args.trace:
        metrics, units = layer or {}, {k: u for k, (u, _) in tracer.PER_LAYER.items()}
    else:
        metrics, units = e2e, END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


def report_layers(wl: Workload, layer: dict, detail: dict) -> None:
    print(f"per-layer (traced run: {detail['spans']} spans, {detail['records']} records, "
          f"{detail['threads']} threads)")
    for name, (unit, _) in tracer.PER_LAYER.items():
        print(f"  {name:<38s} {layer[name]!r} {unit}")
    for cell, c in detail["knn_by_cell"].items():
        print(f"  knn cell {cell}: {c['calls']} calls, redundant_share {c['redundant_share']!r}")
    steps = layer["engine.sharded_step.calls"]
    predictions = []
    if wl.name == "suite-scale":
        predictions.append(("core.knn_indices.calls == 0", layer["core.knn_indices.calls"] == 0))
    if wl.name in ("suite-demo", "suite-scale"):
        predictions.append(("engine.shards per sharded_step == 1",
                            steps > 0 and layer["engine.shards"] == steps))
    if wl.name == "distgrid-shard":
        cells = detail["knn_by_cell"]
        predictions.append(("redundant_share == 15/16 in 16x4",
                            "16x4" in cells and cells["16x4"]["redundant_share"] == 15 / 16))
        predictions.append(("redundant_share == 0 in 1x64",
                            "1x64" in cells and cells["1x64"]["redundant_share"] == 0))
    for text, holds in predictions:
        print(f"  prediction {text}: {'holds' if holds else 'DOES NOT HOLD'}")


if __name__ == "__main__":
    sys.exit(main())
