"""The benchmark's traced run (`perfbench/launch.py --trace`) wraps layer
functions by name and binds their argument names, so a refactor that renames
either makes the traced run fail. Both CLI workloads it traces run here on
tiny configs, and the benchmark's own summary of their spans pins the number
of first transfers trained. Untraced, the launcher marks the entry of
functions it reaches as attributes of the package (`sfuda.distsim` among
them) after importing only `sfuda` and `sfuda.cli`; those runs are here too."""
import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def summarize(spans):
    """perfbench/tracer.py's per-layer metrics of a span dump."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  LAUNCH.parent / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.summarize(spans)[0]

DATA = {"generate": {"num_classes": 3, "dim": 5, "n_per_class": 16,
                     "class_sep": 3.0, "seed": 0, "shift": {"mean_shift": 0.3}}}
SUITE = {
    "data": DATA,
    "tasks": ["SFUDA"],
    "methods": ["SCA", "SHOT", "PCSR"],
    "method_configs": {"SHOT": {"epochs": 1, "batch_size": 16},
                       "PCSR": {"epochs": 1, "batch_size": 16}},
    "head": {"hidden_dim": 8},
    "train": {"epochs": 2},
}
DISTGRID = {
    "data": DATA,
    "distgrid": {"methods": ["SHOT", "NRC", "AAD"], "cells": ["1x8", "2x4"]},
    "method_configs": {m: {"epochs": 1} for m in ("SHOT", "NRC", "AAD")},
    "head": {"hidden_dim": 8},
    "train": {"epochs": 2},
}


@pytest.mark.parametrize("command, cfg", [("suite", SUITE), ("distgrid", DISTGRID)])
def test_traced_cli_run_succeeds(tmp_path, command, cfg):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    spans = tmp_path / "spans.json"
    seeds = [0] if command == "suite" else [0, 1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), "--marks", str(tmp_path / "marks.json"),
         "--trace", str(spans), "--", command, "--config", str(config),
         "--seeds", ",".join(map(str, seeds)), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = summarize(json.loads(spans.read_text()))
    # SFUDA records (suite) and methods (distgrid) share one LP per seed
    assert metrics["head.train_supervised.calls"] == len(seeds)
    assert metrics["harness.first_transfer.useful_ratio"] == 1.0
    if command == "suite":
        with open(tmp_path / "out" / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        assert len(rows) == 3
        assert [r["error"] for r in rows] == ["", "", ""]


@pytest.mark.parametrize("flags", [[], ["--setup-only"]], ids=["untraced", "setup-only"])
@pytest.mark.parametrize("command, cfg", [("suite", SUITE), ("distgrid", DISTGRID)])
def test_untraced_launch_marks_its_first_record(tmp_path, command, cfg, flags):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg))
    marks = tmp_path / "marks.json"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), "--marks", str(marks), *flags, "--", command,
         "--config", str(config), "--seeds", "0", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "first_record" in json.loads(marks.read_text())
