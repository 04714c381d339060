import contextlib
import hashlib
import io
import json
import math
import os
import re
import signal
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import sfuda
from sfuda.cli import RECORD_COLUMNS, main, parse_seeds
from sfuda.data import load_embeddings
from sfuda.harness import ADAPT_METHODS, TASKS, ExperimentRecord

ASSET_TABLE = os.path.join(os.path.dirname(__file__), "..", "assets",
                           "example_results.csv")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")
# records.csv of the README's quick-start suite, seeds 0..2, at any --jobs
QUICK_START_SHA256 = "737d3048b80f9af8a1405de4cc67da6a9c2b6cb69e0d9e4f4f2cf9179ea06767"
# its aggregates.csv, and the summary tables of sweep_config() and
# distgrid_config() at seeds 0,1, at any --jobs
QUICK_START_AGGREGATES_SHA256 = "5d1aa520e404a9d31f3e679c6b74e61c9fc4164f96ae4f613ee5beeb5b98fa74"
SWEEP_SHA256 = "6f42464e94893eb4cd958f24fd77904c4d4b98cabfa211485ba9ad32a58b6054"
DISTGRID_SHA256 = "76e4f5437abe45697132c7e02f69a058ab24ec0bfb3be888d93fb879e5acc88e"


def base_config():
    return {
        "data": {"generate": {"num_classes": 3, "dim": 5, "n_per_class": 12,
                              "class_sep": 3.0, "seed": 0,
                              "shift": {"mean_shift": 0.3}}},
        "tasks": ["LP-ODG"],
        "head": {"hidden_dim": 8},
        "train": {"epochs": 3},
    }


def distgrid_config(cells=("1x8", "2x4")):
    cfg = base_config()
    del cfg["tasks"]
    cfg["distgrid"] = {"methods": ["SHOT", "NRC", "AAD"], "cells": list(cells)}
    cfg["method_configs"] = {m: {"epochs": 1} for m in ("SHOT", "NRC", "AAD")}
    return cfg


def sweep_config():
    cfg = base_config()
    cfg["sweep"] = {"method": "SHOT", "params": {"epochs": [1, 2], "ce_weight": [0.0, 0.3]}}
    return cfg


def file_data(pair):
    """A data section that reads the pair gen-data wrote into pair."""
    return {s: {"features": str(pair / f"{s}_features.bin"),
                "labels": str(pair / f"{s}_labels.txt")} for s in ("source", "target")}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def start_cli(tmp_path, argv, patch=""):
    """`sfuda ARGV` in a child process, in tmp_path, after running patch
    (Python source that may change sfuda.harness) in it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sfuda.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "\n".join(["import os, sys", "import sfuda.harness", patch,
                        "from sfuda.cli import main", f"sys.exit(main({argv!r}))"])
    return subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def alive(pid):
    """pid exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestImport:
    def test_the_cli_does_not_load_multiprocessing(self, tmp_path):
        # only a pooled suite imports it, when its pool starts
        proc = start_cli(tmp_path, ["--version"], patch="import sfuda.cli\nprint(sorted("
                         "m for m in ('multiprocessing',) if m in sys.modules))")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.splitlines()[0] == "[]"

    def test_a_gelu_suite_loads_no_scipy(self, tmp_path):
        cfg = {**base_config(), "head": {"hidden_dim": 8, "activation": "gelu"}}
        write_config(tmp_path, cfg)
        proc = start_cli(tmp_path, ["suite", "--config", "cfg.json", "--out", "out"],
                         patch="import atexit\natexit.register(lambda: print(sorted("
                         "m for m in sys.modules if m.startswith('scipy'))))")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.splitlines()[-1] == "[]"
        assert (tmp_path / "out" / "records.csv").exists()


class TestSeedParsing:
    def test_range_and_list(self):
        assert parse_seeds("0..4") == [0, 1, 2, 3, 4]
        assert parse_seeds("3,7,11") == [3, 7, 11]
        assert parse_seeds("5..5") == [5]

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty seed range"):
            parse_seeds("4..1")


class TestGenData:
    def test_writes_a_loadable_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
        assert "wrote 36+36 samples" in capsys.readouterr().out
        src = load_embeddings(str(out / "source_features.bin"),
                              str(out / "source_labels.txt"))
        assert src.n == 36 and src.d == 5 and src.num_classes == 3
        manifest = json.loads((out / "gen_manifest.json").read_text())
        assert manifest["provenance"]["command"] == "gen-data"

    def test_regeneration_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--config", cfg, "--out", str(a)])
        main(["gen-data", "--config", cfg, "--out", str(b)])
        for name in ("source_features.bin", "target_features.bin",
                     "source_labels.txt", "target_labels.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestRun:
    def test_single_record_and_rerun_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", cfg, "--seed", "0", "--out", str(a)]) == 0
        assert "LP-ODG seed 0" in capsys.readouterr().out
        rows = read_rows(a / "records.csv")
        assert len(rows) == 1
        assert rows[0]["task"] == "LP-ODG"
        assert float(rows[0]["accuracy"]) == float(rows[0]["baseline_lp_odg"])
        assert main(["run", "--config", cfg, "--seed", "0", "--out", str(b)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_rejects_multiple_specs(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["tasks"] = ["LP-ODG", "FT-ODG"]
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "use suite" in err

    def test_a_raising_record_is_written_and_sets_the_exit_status(self, tmp_path, capsys,
                                                                  monkeypatch):
        cfg_cls, _ = ADAPT_METHODS["SHOT"]

        def raising(model, feats, cfg, dist=None):
            raise RuntimeError("adapter broke")

        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, raising))
        cfg = {**base_config(), "tasks": ["SFUDA"], "methods": ["SHOT"]}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "SFUDA/SHOT seed 0: accuracy nan (baseline nan, raised)\n"
        assert captured.err == ("error: 1 of 1 records raised "
                                "(see the error column of records.csv)\n")
        assert [r["error"] for r in read_rows(out / "records.csv")] == \
            ["RuntimeError: adapter broke"]
        assert sorted(os.listdir(out)) == ["manifest.json", "records.csv"]

    def test_rejects_seed_sweeps(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        code = main(["run", "--config", cfg, "--seeds", "0..2",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "exactly one seed" in capsys.readouterr().err


class TestSuite:
    def suite_config(self):
        cfg = base_config()
        cfg["tasks"] = ["LP-ODG", "SFUDA"]
        cfg["methods"] = ["SHOT"]
        cfg["method_configs"] = {"SHOT": {"epochs": 2}}
        return cfg

    def test_record_count_is_specs_times_seeds(self, tmp_path):
        cfg = write_config(tmp_path, self.suite_config())
        out = tmp_path / "out"
        assert main(["suite", "--config", cfg, "--seeds", "0..4",
                     "--out", str(out)]) == 0
        rows = read_rows(out / "records.csv")
        assert len(rows) == 2 * 5
        assert sorted({r["task"] for r in rows}) == ["LP-ODG", "SFUDA"]
        assert sorted({int(r["seed"]) for r in rows}) == [0, 1, 2, 3, 4]
        aggs = read_rows(out / "aggregates.csv")
        assert len(aggs) == 2
        assert all(int(a["n_ok"]) == 5 for a in aggs)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_the_quick_start_suite_writes_the_pinned_records(self, tmp_path, jobs):
        with open(README) as fh:
            config = re.search(r"cat > cfg.json <<'EOF'\n(.*?)\nEOF\n", fh.read(), re.S)[1]
        (tmp_path / "cfg.json").write_text(config)
        out = tmp_path / "suite"
        assert main(["suite", "--config", str(tmp_path / "cfg.json"), "--seeds", "0..2",
                     "--jobs", jobs, "--out", str(out)]) == 0
        assert sha256(out / "records.csv") == QUICK_START_SHA256
        assert sha256(out / "aggregates.csv") == QUICK_START_AGGREGATES_SHA256

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command, table, digest", [
        ("sweep", "sweep.csv", SWEEP_SHA256),
        ("distgrid", "distgrid.csv", DISTGRID_SHA256),
    ])
    def test_sweep_and_distgrid_write_the_pinned_tables(self, tmp_path, jobs, command,
                                                        table, digest):
        cfg = sweep_config() if command == "sweep" else distgrid_config()
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--seeds", "0,1",
                     "--jobs", jobs, "--out", str(out)]) == 0
        assert sha256(out / table) == digest

    def test_a_task_listed_twice_keeps_two_aggregate_rows(self, tmp_path):
        cfg = {**base_config(), "tasks": ["LP-ODG", "LP-ODG"]}
        out = tmp_path / "out"
        assert main(["suite", "--config", write_config(tmp_path, cfg), "--seeds", "0,1",
                     "--out", str(out)]) == 0
        aggs = read_rows(out / "aggregates.csv")
        assert [(a["task"], a["n_seeds"]) for a in aggs] == [("LP-ODG", "2")] * 2
        assert aggs[0] == aggs[1]

    def test_manifest_reruns_as_config(self, tmp_path):
        cfg = write_config(tmp_path, self.suite_config())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(a)])
        code = main(["suite", "--config", str(a / "manifest.json"),
                     "--seeds", "0,1", "--out", str(b)])
        assert code == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_manifest_reruns_with_no_flag(self, tmp_path):
        # the manifest carries the resolved seeds and format
        cfg = write_config(tmp_path, self.suite_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["suite", "--config", cfg, "--seeds", "0..1", "--format", "tsv",
                     "--out", str(a)]) == 0
        config = json.loads((a / "manifest.json").read_text())["config"]
        assert (config["seeds"], config["format"]) == ([0, 1], "tsv")
        assert main(["suite", "--config", str(a / "manifest.json"), "--out", str(b)]) == 0
        assert sorted(os.listdir(a)) == sorted(os.listdir(b)) == [
            "aggregates.tsv", "manifest.json", "records.tsv"]
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_a_config_naming_its_seeds_and_format_hashes_as_one_that_does_not(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["suite", "--config", write_config(tmp_path, self.suite_config()),
                     "--seeds", "0,1", "--out", str(a)]) == 0
        named = {**self.suite_config(), "seeds": [0, 1], "format": "csv"}
        assert main(["suite", "--config", write_config(tmp_path, named, "named.json"),
                     "--out", str(b)]) == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_manifest_records_the_numeric_environment(self, tmp_path):
        cfg = write_config(tmp_path, self.suite_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(a)]) == 0
        prov = json.loads((a / "manifest.json").read_text())["provenance"]
        assert prov["numpy"] == np.__version__
        assert prov["blas"] and "scipy" not in prov
        assert main(["suite", "--config", str(a / "manifest.json"),
                     "--seeds", "0,1", "--out", str(b)]) == 0
        for name in ("records.csv", "aggregates.csv", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["suite", "distgrid"])
    def test_jobs_flag_does_not_change_results(self, tmp_path, command):
        suite = command == "suite"
        cfg = write_config(tmp_path, self.suite_config() if suite else distgrid_config())
        table = "records.csv" if suite else "distgrid.csv"
        a, b = tmp_path / "a", tmp_path / "b"
        assert main([command, "--config", cfg, "--seeds", "0,1", "--out", str(a)]) == 0
        assert main([command, "--config", cfg, "--seeds", "0,1", "--jobs", "2",
                     "--out", str(b)]) == 0
        assert (a / table).read_bytes() == (b / table).read_bytes()

    def test_tsv_format(self, tmp_path):
        cfg = write_config(tmp_path, self.suite_config())
        out = tmp_path / "out"
        main(["suite", "--config", cfg, "--seed", "0", "--format", "tsv",
              "--out", str(out)])
        text = (out / "records.tsv").read_text()
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert "\t" in body[0]
        assert not (out / "records.csv").exists()

    def test_writes_stay_inside_the_output_directory(self, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        cfg = write_config(tmp_path, self.suite_config())
        out = tmp_path / "out"
        main(["suite", "--config", cfg, "--seed", "0", "--out", str(out)])
        assert os.listdir(workdir) == []
        assert sorted(os.listdir(out)) == ["aggregates.csv", "manifest.json",
                                           "records.csv"]


class TestFloat32Files:
    """Embeddings files store float32, and every record on them computes in
    float32; generated data computes in float64."""

    @staticmethod
    def file_config(tmp_path, norm_kind="batchnorm", activation="relu"):
        pair = tmp_path / "pair"
        assert main(["gen-data", "--config", write_config(tmp_path, base_config()),
                     "--out", str(pair)]) == 0
        methods = ["SCA", "SHOT", "NRC", "AAD", "PCSR"]
        return {**base_config(), "data": file_data(pair),
                "tasks": ["LP-IDG", "FT-IDG", "LP-ODG", "FT-ODG", "SFUDA", "FT-SFUDA"],
                "methods": methods,
                "method_configs": {m: {"epochs": 2, "batch_size": 16} for m in methods[1:]},
                "head": {"hidden_dim": 8, "norm_kind": norm_kind, "activation": activation}}

    def test_records_are_identical_at_jobs_1_and_2(self, tmp_path):
        cfg = write_config(tmp_path, self.file_config(tmp_path))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(a)]) == 0
        assert main(["suite", "--config", cfg, "--seeds", "0,1", "--jobs", "2",
                     "--out", str(b)]) == 0
        rows = read_rows(a / "records.csv")
        assert len(rows) == 2 * (4 + 2 * 5)
        assert {r["method"] for r in rows} >= {"NRC", "AAD"}
        assert all(r["error"] == "" for r in rows)
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    @pytest.mark.parametrize("norm_kind, activation",
                             [("batchnorm", "relu"), ("layernorm", "gelu")])
    def test_no_float64_array_reaches_the_head(self, tmp_path, monkeypatch, norm_kind,
                                               activation):
        """Spies on forward, backward and sgd_step wherever a module of the
        package holds them, and sees every float array they take or give."""
        seen = set()

        def dtypes(obj):
            if isinstance(obj, np.ndarray):
                if obj.dtype.kind == "f":
                    seen.add(obj.dtype)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    dtypes(v)
            elif isinstance(obj, dict):
                dtypes(list(obj.values()))
            elif isinstance(obj, sfuda.head.HeadModel):
                dtypes([obj.params(), obj.norm.running_mean, obj.norm.running_var])
            elif isinstance(obj, sfuda.head.ForwardCache):
                dtypes([obj.x, obj.xhat, obj.inv_std, obj.y, obj.feats])

        def spy(fn):
            def spied(*args, **kwargs):
                result = fn(*args, **kwargs)
                dtypes([args, kwargs, result])
                return result
            return spied

        for name in ("forward", "backward", "sgd_step"):
            fn = getattr(sfuda.head, name)
            for module in [m for n, m in sys.modules.items() if n.startswith("sfuda.")]:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, spy(fn))
        cfg = self.file_config(tmp_path, norm_kind, activation)
        assert main(["suite", "--config", write_config(tmp_path, cfg), "--seeds", "0",
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == {np.dtype(np.float32)}

    def test_the_manifest_records_each_datasets_compute_dtype(self, tmp_path):
        files, generated = tmp_path / "files", tmp_path / "generated"
        for cfg, out in ((self.file_config(tmp_path), files), (base_config(), generated)):
            assert main(["suite", "--config", write_config(tmp_path, cfg), "--seeds", "0",
                         "--out", str(out)]) == 0
        for out, dtype in ((files, "float32"), (generated, "float64")):
            prov = json.loads((out / "manifest.json").read_text())["provenance"]
            assert prov["compute_dtype"] == {"source": dtype, "target": dtype}


class TestProvenance:
    """A stamp covers the contents of the files a command read, not the
    paths they were read from."""

    @staticmethod
    def gen_pair(tmp_path, out, seed):
        cfg = base_config()
        cfg["data"]["generate"]["seed"] = seed
        assert main(["gen-data", "--config", write_config(tmp_path, cfg, "gen.json"),
                     "--out", str(out)]) == 0

    @staticmethod
    def stamp(tmp_path, data, out):
        cfg = write_config(tmp_path, {**base_config(), "data": data})
        assert main(["suite", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
        return (out / "records.csv").read_text().splitlines()[0]

    def test_the_same_files_at_two_paths_get_one_stamp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.gen_pair(tmp_path, tmp_path / "pair", 0)
        relative = {s: {k: f"pair/{s}_{k}{ext}" for k, ext in
                        (("features", ".bin"), ("labels", ".txt"))}
                    for s in ("source", "target")}
        first = self.stamp(tmp_path, relative, tmp_path / "o1")
        assert self.stamp(tmp_path, file_data(tmp_path / "pair"), tmp_path / "o2") == first
        (tmp_path / "copy").mkdir()
        for f in (tmp_path / "pair").glob("*_*"):
            (tmp_path / "copy" / f.name).write_bytes(f.read_bytes())
        assert self.stamp(tmp_path, file_data(tmp_path / "copy"), tmp_path / "o3") == first

    def test_different_contents_at_one_path_get_two_stamps(self, tmp_path):
        pair = tmp_path / "pair"
        self.gen_pair(tmp_path, pair, 0)
        first = self.stamp(tmp_path, file_data(pair), tmp_path / "o1")
        self.gen_pair(tmp_path, pair, 1)
        assert self.stamp(tmp_path, file_data(pair), tmp_path / "o2") != first

    def test_the_manifest_lists_each_file_read_with_its_digest(self, tmp_path):
        pair = tmp_path / "pair"
        self.gen_pair(tmp_path, pair, 0)
        data = file_data(pair)
        self.stamp(tmp_path, data, tmp_path / "out")
        prov = json.loads((tmp_path / "out" / "manifest.json").read_text())["provenance"]
        paths = [data[s][k] for s in ("source", "target") for k in ("features", "labels")]
        assert prov["files"] == {p: sha256(Path(p)) for p in paths}

    @pytest.mark.parametrize("make_bad", [Path.unlink, lambda p: (p.unlink(), p.mkdir())])
    def test_a_missing_or_unreadable_file_is_one_error_line(self, tmp_path, make_bad):
        pair = tmp_path / "pair"
        self.gen_pair(tmp_path, pair, 0)
        make_bad(pair / "target_labels.txt")
        cfg = write_config(tmp_path, {**base_config(), "data": file_data(pair)})
        out = tmp_path / "out"
        assert_one_error_line(*run_cli(["suite", "--config", cfg, "--out", str(out)]), out)


class TestFailureHandling:
    def test_unknown_config_key_exits_with_one_error_line(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["tassks"] = ["LP-ODG"]
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["suite", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: config: unknown key(s) tassks")
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config file not found" in capsys.readouterr().err

    def test_bad_method_parameter_in_sweep(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["sweep"] = {"method": "NRC", "params": {"neighbors": [3]}}
        cfg = write_config(tmp_path, cfg_dict)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "no parameter" in capsys.readouterr().err

    def test_errored_records_set_the_exit_status(self, tmp_path, capsys, monkeypatch):
        cfg_cls, _ = ADAPT_METHODS["SHOT"]

        def raising(model, feats, cfg, dist=None):
            raise RuntimeError("adapter broke")

        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, raising))
        cfg = {**base_config(), "tasks": ["LP-ODG", "SFUDA"], "methods": ["SHOT"]}
        out = tmp_path / "out"
        assert main(["suite", "--config", write_config(tmp_path, cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [ln for ln in err if ln.startswith("error:")] == \
            ["error: 1 of 2 records raised (see the error column of records.csv)"]
        rows = read_rows(out / "records.csv")
        assert [r["error"] for r in rows] == ["", "RuntimeError: adapter broke"]
        # the record that raised is an error, not an adaptation failure
        assert (rows[1]["failed"], rows[1]["accuracy"]) == ("0", "nan")
        assert (out / "manifest.json").exists()
        ok, raised = read_rows(out / "aggregates.csv")
        assert ok["summary"].endswith("(n=1)")
        assert (raised["n_seeds"], raised["n_ok"], raised["mean"], raised["summary"]) == \
            ("1", "0", "nan", "no successful runs")

    def test_raising_grid_cell_sets_the_exit_status(self, tmp_path, capsys):
        # 64 workers cannot share the 36 target rows, so 64x1 raises
        cfg = distgrid_config(cells=("1x64", "64x1"))
        cfg["head"]["norm_kind"] = "batchnorm"
        out = tmp_path / "out"
        assert main(["distgrid", "--config", write_config(tmp_path, cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(err) == 1
        assert err[0] == ("error: 3 of 6 grid records raised (first: SHOT 64x1 seed 0: "
                          "ValueError: cannot split 36 rows across 64 workers)")
        rows = read_rows(out / "distgrid.csv")
        assert [r["cell"] for r in rows] == ["1x64", "64x1"]
        for m in ("SHOT", "NRC", "AAD"):
            assert "nan" not in rows[0][m]
            assert rows[1][m] == "nan ± 0.00"
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ({"seeds": "0..2"}, [], "seeds must be a list of integers, not '0..2'"),
        ({"seeds": [True]}, [], "seeds must be nonnegative integers, not True"),
        ({"seeds": [0.5]}, [], "seeds must be nonnegative integers, not 0.5"),
        ({"seeds": [-1]}, [], "seeds must be nonnegative integers, not -1"),
        ({}, ["--seeds=-1"], "seeds must be nonnegative integers, not -1"),
        ({}, ["--seeds=-1..1"], "seeds must be nonnegative integers, not -1"),
        ({}, ["--seed=-1"], "seeds must be nonnegative integers, not -1"),
        ({"jobs": 0}, [], "jobs must be a positive integer, not 0"),
        ({"jobs": True}, [], "jobs must be a positive integer, not True"),
        ({"jobs": "2"}, [], "jobs must be a positive integer, not '2'"),
        ({"jobs": 1.5}, [], "jobs must be a positive integer, not 1.5"),
        ({}, ["--jobs=0"], "jobs must be a positive integer, not 0"),
        ({"seeds": [0, 0, 1]}, [], "seed 0 is given more than once"),
        ({}, ["--seeds=3,1,3"], "seed 3 is given more than once"),
        # a path is typed before it is opened (open() takes an int as a descriptor)
        ({"out_dir": 5}, [], "config: out_dir must be str, not 5"),
        ({"results_table": 5}, [], "config: results_table must be str, not 5"),
        ({}, ["--seeds=x"], "seeds must be nonnegative integers, not 'x'"),
        ({}, ["--seeds=1..3,5"], "seeds must be nonnegative integers, not '3,5'"),
    ])
    def test_malformed_seeds_and_jobs_are_config_errors(self, tmp_path, capsys, config,
                                                        flags, message):
        cfg = write_config(tmp_path, {**base_config(), **config})
        out = tmp_path / "out"
        assert main(["suite", "--config", cfg, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value, message", [
        ("suite", "head", 5, "head must be a JSON object"),
        ("suite", "train", [1], "train must be a JSON object"),
        ("suite", "data", [1], "data must be a JSON object"),
        ("suite", "data", {"generate": 5}, "data.generate must be a JSON object"),
        ("suite", "method_configs", [], "method_configs must be a JSON object"),
        ("suite", "method_configs", {"SHOTT": {}}, "method_configs: unknown key(s) SHOTT"),
        ("suite", "tasks", "LP-ODG", "config: tasks must be a list, not 'LP-ODG'"),
        ("suite", "methods", "SHOT", "config: methods must be a list, not 'SHOT'"),
        ("sweep", "sweep", ["SHOT"], "sweep must be a JSON object"),
        ("distgrid", "distgrid", {"methods": "SHOT"},
         "distgrid: methods must be a list, not 'SHOT'"),
        ("distgrid", "distgrid", {"sync_batchnorm": "no"},
         "distgrid: sync_batchnorm must be bool, not 'no'"),
        ("distgrid", "distgrid", {"sync_batchnorm": 0},
         "distgrid: sync_batchnorm must be bool, not 0"),
        ("distgrid", "distgrid", {"cells": [16]}, "distgrid: cells must be str, not 16"),
        ("distgrid", "distgrid", {"cells": "1x8"}, "distgrid: cells must be a list, not '1x8'"),
        ("distgrid", "distgrid", {"cells": ["1y8"]},
         "distgrid: bad grid cell '1y8', expected WxB like 16x4"),
        ("distgrid", "distgrid", {"methods": []}, "distgrid: methods must be a nonempty list"),
        ("sweep", "sweep", {"method": ["SHOT"], "params": {"epochs": [1]}},
         "sweep: method must be str, not ['SHOT']"),
        ("sweep", "sweep", {"params": {"epochs": [1]}}, "sweep needs method"),
        ("sweep", "sweep", {"method": "SHOT", "params": [1]},
         "sweep: params must be dict, not [1]"),
        ("sweep", "sweep", {"method": "SHOT", "params": {}},
         "sweep: params must name at least one parameter"),
        ("stats", "results_table", 5, "config: results_table must be str, not 5"),
        ("suite", "data", {"source": {"features": "a.bin"}, "target": {"features": "b.bin"}},
         "data.source needs labels"),
        # the files are not silently ignored
        ("suite", "data", {"generate": base_config()["data"]["generate"],
                           "source": {"features": "a.bin", "labels": "a.txt"},
                           "target": {"features": "b.bin"}},
         "data needs either 'generate' or both 'source' and 'target'"),
        # a value of the wrong type or out of range, checked before any record runs
        ("suite", "head", {"hidden_dim": "a"}, "hidden_dim must be int, not 'a'"),
        ("suite", "train", {"epochs": "x"}, "train: epochs must be int, not 'x'"),
        ("suite", "train", {"learning_rate": "x"},
         "train: learning_rate must be float, not 'x'"),
        ("suite", "method_configs", {"SHOT": {"epochs": "x"}},
         "method_configs.SHOT: epochs must be int, not 'x'"),
        ("suite", "head", {"norm_kind": "groupnorm"}, "unknown norm_kind 'groupnorm'"),
        ("suite", "head", {"hidden_dim": 2.5}, "hidden_dim must be int, not 2.5"),
        ("suite", "head", {"hidden_dim": 0}, "hidden_dim must be positive"),
        ("distgrid", "head", {"hidden_dim": 2.5}, "hidden_dim must be int, not 2.5"),
        ("suite", "method_configs", {"SHOT": {"momentum": 1.5}},
         "method_configs.SHOT: momentum must lie in [0, 1)"),
        # PCSR takes SHOT's keys with SHOT's checks, under its own section
        ("suite", "method_configs", {"PCSR": {"kmeans_rounds": -1}},
         "method_configs.PCSR: kmeans_rounds must be nonnegative"),
        ("suite", "method_configs", {"PCSR": {"mixup_weight": -1.0}},
         "method_configs.PCSR: mixup_weight must be nonnegative"),
        ("suite", "method_configs", {"NRC": {"learning_rate": -1}},  # NRC does not run
         "method_configs.NRC: learning_rate must be nonnegative"),
        ("suite", "method_configs", {"NRC": {"weight_decay": -1}},
         "method_configs.NRC: weight_decay must be nonnegative"),
        ("suite", "method_configs", {"NRC": {"KK": 0}}, "method_configs.NRC: KK must be positive"),
        ("suite", "train", {"batch_size": 0}, "train: batch_size must be positive"),
        ("distgrid", "method_configs", {"AAD": {"batch_size": True}},
         "method_configs.AAD: batch_size must be int, not True"),
        ("suite", "train", {"label_smoothing": 1.5},
         "train: label_smoothing must lie in [0, 1)"),
        # json reads NaN and Infinity, which no float setting takes
        ("suite", "method_configs", {"NRC": {"learning_rate": float("nan")}},
         "method_configs.NRC: learning_rate must be finite, not nan"),
        ("suite", "method_configs", {"NRC": {"learning_rate": float("inf")}},
         "method_configs.NRC: learning_rate must be finite, not inf"),
        ("suite", "method_configs", {"AAD": {"beta": float("nan")}},
         "method_configs.AAD: beta must be finite, not nan"),
        ("sweep", "sweep", {"method": "AAD", "params": {"beta": [0.5, float("-inf")]}},
         "sweep.params: beta must be finite, not -inf"),
        # a record's loop seeds derive from its run seed, so no section sets one
        ("suite", "train", {"seed": 12345}, "train: seed is derived from each record's seed"),
        ("suite", "method_configs", {"SHOT": {"seed": 999}},
         "method_configs.SHOT: seed is derived from each record's seed"),
        ("distgrid", "method_configs", {"AAD": {"seed": 1}},
         "method_configs.AAD: seed is derived from each record's seed"),
        # a method name is checked against the methods the harness runs
        ("suite", "methods", ["SHOT", "SHOTT"], "methods: unknown method 'SHOTT'"),
        ("distgrid", "distgrid", {"methods": ["NRC", "SHOTT"]},
         "distgrid.methods: unknown method 'SHOTT'"),
        ("sweep", "sweep", {"method": "SHOTT", "params": {"epochs": [1]}},
         "sweep.method: unknown method 'SHOTT'"),
        # a task name too, checked before any data is read
        ("suite", "tasks", ["LP-ODG", "LP-XX"], f"tasks: unknown task 'LP-XX', "
         f"expected one of {tuple(TASKS)}"),
        ("run", "tasks", ["LP-XX"],
         f"tasks: unknown task 'LP-XX', expected one of {tuple(TASKS)}"),
        ("sweep", "sweep", {"method": "SHOT", "params": {"epochs": [1]}, "task": "LP-XX"},
         f"sweep.task: unknown task 'LP-XX', expected one of {tuple(TASKS)}"),
        ("sweep", "sweep", {"method": "SHOT", "params": {"epochs": [1]}, "task": "LP-ODG"},
         "sweep.task: LP-ODG does not take a method"),
        ("sweep", "sweep", {"method": "SCA", "params": {"K": [3]}},
         "sweep.method: SCA exposes no swept hyperparameters"),
        ("distgrid", "distgrid", {"cells": ["1x8", "2x8"]},
         "distgrid.cells: grid cells must share one global batch size"),
        # gen-data draws its pair, so it opens no file, not even a missing one
        ("gen-data", "data", {"source": {"features": "nope.bin", "labels": "nope.txt"},
                              "target": {"features": "nope.bin"}},
         "data: gen-data needs a generate section, not files"),
        # every dataset carries its labels: a target without them is named before files open
        ("suite", "data", {"source": {"features": "nope.bin", "labels": "nope.txt"},
                           "target": {"features": "nope.bin"}}, "data.target needs labels"),
        # SCA has no loop to shard, whatever the data
        ("distgrid", "distgrid", {"methods": ["SHOT", "SCA"]}, "distgrid.methods: SCA has no "
         "gradient loop to shard; its result is invariant to the worker layout"),
    ])
    def test_a_section_of_the_wrong_type_is_named(self, tmp_path, capsys, command, key,
                                                  value, message):
        cfg = {**base_config(), "tasks": ["SFUDA"], "methods": ["SHOT"], key: value}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        # the line names the section first (config for a top-level list); a head
        # value's message follows "head: "
        line = message if message.startswith((key, "config: ")) else f"{key}: {message}"
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("num_classes", 3.7, "data.generate: num_classes must be int, not 3.7"),
        ("n_per_class", True, "data.generate: n_per_class must be int, not True"),
        ("dim", "x", "data.generate: dim must be int, not 'x'"),
        ("class_sep", "x", "data.generate: class_sep must be float, not 'x'"),
        ("seed", -1, "data.generate: seed must be nonnegative, not -1"),
        ("shift.label_noise", "x", "data.generate.shift: label_noise must be float, not 'x'"),
        ("shift.mean_shift", [1, "a", 0, 0, 0],
         "data.generate.shift: mean_shift must be float, not 'a'"),
        ("shift.mean_shift", [1, float("nan"), 0, 0, 0],
         "data.generate.shift: mean_shift must be finite, not nan"),
        ("class_sep", float("inf"), "data.generate: class_sep must be finite, not inf"),
        # checked against dim, when the pair is drawn
        ("shift.rotation_plane", [0],
         "data.generate: rotation_plane must name two distinct feature axes, not [0]"),
        ("shift.rotation_angle", None,
         "data.generate.shift: rotation_angle must be float, not None"),
    ])
    def test_a_bad_generate_value_names_its_key(self, tmp_path, capsys, key, value,
                                                 message):
        cfg = base_config()
        section = cfg["data"]["generate"]
        *parents, name = key.split(".")
        for parent in parents:
            section = section[parent]
        section[name] = value
        out = tmp_path / "out"
        assert main(["suite", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("side, key, value, message", [
        # open() would take an int as a file descriptor: 0 reads stdin
        ("source", "features", 0, "data.source: features must be str, not 0"),
        ("source", "labels", 1, "data.source: labels must be str, not 1"),
        ("target", "features", 2, "data.target: features must be str, not 2"),
        ("source", "num_classes", "x", "data.source: num_classes must be int, not 'x'"),
        ("target", "num_classes", True, "data.target: num_classes must be int, not True"),
        ("source", "name", 5, "data.source: name must be str, not 5"),
        ("target", "features", None, "data.target: features must be str, not None"),
        ("source", "labels", None, "data.source: labels must be str, not None"),
        ("target", "labels", None, "data.target: labels must be str, not None"),
    ])
    def test_a_bad_data_file_value_names_its_side(self, tmp_path, capsys, side, key,
                                                  value, message):
        pair = tmp_path / "pair"
        assert main(["gen-data", "--config", write_config(tmp_path, base_config()),
                     "--out", str(pair)]) == 0
        cfg = {**base_config(), "data": file_data(pair)}
        cfg["data"][side][key] = value
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["suite", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_an_empty_embeddings_file_is_named(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert main(["gen-data", "--config", write_config(tmp_path, base_config()),
                     "--out", str(pair)]) == 0
        features = pair / "target_features.bin"
        features.write_bytes(features.read_bytes()[:4] + struct.pack("<III", 0, 5, 0))
        (pair / "target_labels.txt").write_text("")
        cfg = {**base_config(), "data": file_data(pair)}
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["suite", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {features}: holds 0 rows of 5 features\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["suite", "sweep", "distgrid"])
    @pytest.mark.parametrize("value, message", [
        ({"norm_kind": "groupnorm"}, "head: unknown norm_kind 'groupnorm'"),
        ({"hidden_dim": 2.5}, "head: hidden_dim must be int, not 2.5"),
        ({"activation": "tanh"}, "head: unknown activation 'tanh'"),
    ])
    def test_a_bad_head_value_names_its_section(self, tmp_path, capsys, command, value,
                                                message):
        cfg = {**distgrid_config(), "tasks": ["SFUDA"], "methods": ["SHOT"],
               "sweep": {"method": "SHOT", "params": {"epochs": [1]}}, "head": value}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_stray_large_label_names_its_file(self, tmp_path, capsys):
        pair = tmp_path / "pair"
        assert main(["gen-data", "--config", write_config(tmp_path, base_config()),
                     "--out", str(pair)]) == 0
        labels = pair / "source_labels.txt"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(["99"] + lines[1:]) + "\n")
        cfg = {**base_config(), "data": file_data(pair)}
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["suite", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {labels}: largest label 99 implies "
                                           f"100 classes, but there are {len(lines)} rows\n")
        assert not out.exists()

    @pytest.mark.parametrize("side, num_classes, breaks, message", [
        # a class count below the labels, then above them: the labels file is named
        ("target", 2, None, "{labels}: label out of range: 2 with 2 classes"),
        ("target", 5, None, "{labels}: classes [3, 4] of 5 have no samples"),
        ("source", 4, None, "{labels}: classes [3] of 4 have no samples"),
        # a NaN in the features: the embeddings file is named
        ("target", None, "nan", "{features}: dataset 'target' has non-finite features"),
    ])
    def test_a_dataset_error_names_its_file(self, tmp_path, capsys, side, num_classes,
                                            breaks, message):
        pair = tmp_path / "pair"
        assert main(["gen-data", "--config", write_config(tmp_path, base_config()),
                     "--out", str(pair)]) == 0
        features, labels = pair / f"{side}_features.bin", pair / f"{side}_labels.txt"
        if breaks == "nan":
            blob = features.read_bytes()
            features.write_bytes(blob[:20] + struct.pack("<f", np.nan) + blob[24:])
        cfg = {**base_config(), "data": file_data(pair)}
        if num_classes is not None:
            cfg["data"][side]["num_classes"] = num_classes
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["suite", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: " + message.format(features=features, labels=labels) + "\n"
        assert not out.exists()

    @pytest.mark.parametrize("values", [[], 2])
    def test_sweep_parameter_needs_a_nonempty_list(self, tmp_path, capsys, values):
        cfg_dict = base_config()
        cfg_dict["sweep"] = {"method": "SHOT", "params": {"epochs": values}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, cfg_dict),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: sweep.params: epochs needs a nonempty list")
        assert not out.exists()

    def test_a_dying_worker_fails_the_suite_with_one_error_line(self, tmp_path):
        cfg = {**base_config(), "tasks": ["LP-ODG", "SFUDA"], "methods": ["SHOT"]}
        write_config(tmp_path, cfg)
        patch = ('cfg_cls, _ = sfuda.harness.ADAPT_METHODS["SHOT"]\n'
                 'sfuda.harness.ADAPT_METHODS["SHOT"] = (cfg_cls, lambda *a, **k: os._exit(1))')
        proc = start_cli(tmp_path, ["suite", "--config", "cfg.json", "--seeds", "0,1",
                                    "--jobs", "2", "--out", "out"], patch)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            "error: A process in the process pool was terminated abruptly "
            "while the future was running or pending."]
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
                        reason="needs /proc/PID/task/PID/children")
    def test_killing_the_cli_kills_its_workers(self, tmp_path):
        cfg = {**base_config(), "tasks": ["SFUDA"], "methods": ["SHOT"],
               "method_configs": {"SHOT": {"epochs": 5000}}}
        write_config(tmp_path, cfg)
        proc = start_cli(tmp_path, ["suite", "--config", "cfg.json", "--seeds", "0..3",
                                    "--jobs", "2", "--out", "out"])
        workers, last = [], None
        try:
            # the records' workers: the same ones twice half a second apart
            deadline = time.monotonic() + 60
            while not workers and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.5)
                with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as fh:
                    now = sorted(int(pid) for pid in fh.read().split())
                workers, last = (now if now == last else []), now
            assert workers, "the suite started no worker"
            proc.kill()
            proc.wait(timeout=10)
            time.sleep(5)
            assert [pid for pid in workers if alive(pid)] == []
        finally:
            # stray workers hold the CLI's output pipes open, so they go first
            for pid in workers:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.kill()
            proc.communicate(timeout=60)

    def test_a_failed_write_keeps_the_previous_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        assert main(["suite", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in ("records.csv",
                                                                "aggregates.csv")}
        (out / "manifest.json").unlink()
        (out / "manifest.json").mkdir()
        assert main(["suite", "--config", cfg, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
        assert sorted(os.listdir(out)) == ["aggregates.csv", "manifest.json", "records.csv"]
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_a_failed_write_removes_the_directory_it_made(self, tmp_path, monkeypatch):
        real, calls = os.replace, []

        def replace_once(src, dst):
            calls.append(dst)
            if len(calls) > 1:
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace_once)
        out = tmp_path / "out"
        assert main(["suite", "--config", write_config(tmp_path, base_config()),
                     "--seed", "0", "--out", str(out)]) == 1
        assert len(calls) == 2 and not out.exists()

    # three files each replace an old one: one rename per file
    @pytest.mark.parametrize("fail_at", range(1, 4))
    def test_a_failed_rename_puts_the_previous_outputs_back(self, tmp_path, capsys,
                                                            monkeypatch, fail_at):
        cfg = write_config(tmp_path, sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        real, calls = os.replace, []

        def replace_fails_once(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace_fails_once)
        capsys.readouterr()
        assert main(["sweep", "--config", cfg, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before

    def test_a_failed_rename_removes_the_files_that_are_new(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        (out / "sweep.csv").write_text("old\n")
        real, calls = os.replace, []

        def replace_fails_last(src, dst):
            calls.append(dst)
            if dst.endswith("manifest.json"):
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace_fails_last)
        assert main(["sweep", "--config", write_config(tmp_path, sweep_config()),
                     "--seed", "0", "--out", str(out)]) == 1
        assert os.listdir(out) == ["sweep.csv"]
        assert (out / "sweep.csv").read_text() == "old\n"

    def test_partial_outputs_are_removed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").mkdir()  # write fails after records.csv lands
        assert main(["run", "--config", cfg, "--seed", "0",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(out) == ["manifest.json"]


class TestSweepCommand:
    def test_grid_rows_and_mean_column(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--seed", "0",
                     "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 4
        assert all(np.isfinite(float(r["mean"])) for r in rows)
        assert [r["epochs"] for r in rows] == ["1", "1", "2", "2"]


    @pytest.mark.parametrize("command, keys", [
        ("sweep", ["epochs", "ce_weight"]),
        ("distgrid", ["cell", "workers", "local_batch"]),
    ])
    def test_records_carry_the_key_columns(self, tmp_path, command, keys):
        cfg = sweep_config() if command == "sweep" else distgrid_config()
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg), "--seeds", "0,1",
                     "--out", str(out)]) == 0
        with open(out / "records.csv") as fh:
            assert fh.read().splitlines()[1].split(",") == RECORD_COLUMNS + keys
        rows = read_rows(out / "records.csv")
        assert len(rows) == (4 * 2 if command == "sweep" else 3 * 2 * 2)
        if command == "sweep":  # combination-major, seed-minor
            assert [(r["epochs"], r["ce_weight"], r["seed"]) for r in rows[:4]] == \
                [("1", "0.0", "0"), ("1", "0.0", "1"), ("1", "0.3", "0"), ("1", "0.3", "1")]
        else:  # method-major, then cell, then seed
            assert [(r["method"], r["cell"], r["workers"], r["local_batch"], r["seed"])
                    for r in rows[:4]] == [("SHOT", "1x8", "1", "8", "0"),
                                           ("SHOT", "1x8", "1", "8", "1"),
                                           ("SHOT", "2x4", "2", "4", "0"),
                                           ("SHOT", "2x4", "2", "4", "1")]
        # each summary row is the mean of its records
        table = read_rows(out / f"{command}.csv")
        if command == "sweep":
            accs = [float(r["accuracy"]) for r in rows[:2]]
            assert float(table[0]["mean"]) == np.mean(accs)
        else:
            accs = [float(r["accuracy"]) for r in rows[2:4]]
            assert table[1]["SHOT"] == f"{np.mean(accs):.2f} ± {np.std(accs, ddof=1):.2f}"

    def test_method_configs_set_what_the_sweep_does_not_vary(self, tmp_path):
        def sweep_rows(epochs):
            cfg_dict = base_config()
            cfg_dict["data"]["generate"].update(num_classes=4, n_per_class=20, class_sep=2.0,
                                                shift={"mean_shift": 1.0})
            cfg_dict["sweep"] = {"method": "SHOT", "params": {"learning_rate": [0.05, 0.2]}}
            cfg_dict["method_configs"] = {"SHOT": {"epochs": epochs}}
            out = tmp_path / f"epochs{epochs}"
            assert main(["sweep", "--config", write_config(tmp_path, cfg_dict),
                         "--seed", "0", "--out", str(out)]) == 0
            return read_rows(out / "sweep.csv")

        one, three = sweep_rows(1), sweep_rows(3)
        assert [r["learning_rate"] for r in one] == [r["learning_rate"] for r in three]
        assert [r["mean"] for r in one] != [r["mean"] for r in three]

    @pytest.mark.parametrize("params, message", [
        ({"epochs": ["x"]}, "sweep.params: epochs must be int, not 'x'"),
        ({"epochs": [1], "momentum": [0.5, 1.5]},
         "sweep.params: momentum must lie in [0, 1)"),
        ({"seed": [1, 2, 3]}, "sweep.params: seed is derived from each record's seed"),
        ({"neighbors": [3]}, "sweep.params: SHOT has no parameter 'neighbors'"),
    ])
    def test_a_bad_sweep_value_names_its_section(self, tmp_path, capsys, params, message):
        cfg_dict = base_config()
        cfg_dict["sweep"] = {"method": "SHOT", "params": params}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, cfg_dict),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_jobs_flag_does_not_change_the_sweep(self, tmp_path):
        cfg = write_config(tmp_path, sweep_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--seeds", "0,1", "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--seeds", "0,1", "--jobs", "2",
                     "--out", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_raised_records_set_the_exit_status(self, tmp_path, capsys):
        # K must stay below the 36 target rows, so K=200 raises in every record
        cfg_dict = base_config()
        cfg_dict["sweep"] = {"method": "NRC", "params": {"K": [2, 200], "epochs": [1]}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, cfg_dict),
                     "--seeds", "0,1", "--out", str(out)]) == 1
        err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(err) == 1
        assert err[0].startswith("error: 2 of 4 sweep records raised "
                                 "(first: K=200, epochs=1 seed 0: ValueError: ")
        rows = read_rows(out / "sweep.csv")
        assert [(r["K"], r["n_ok"], r["n_total"]) for r in rows] == \
            [("2", "2", "2"), ("200", "0", "2")]
        assert rows[0]["mean"] != "nan" and rows[1]["mean"] == "nan"
        assert (out / "manifest.json").exists()


class TestStatsCommand:
    def test_group_aware_fit_beats_plain_on_the_example_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["stats", ASSET_TABLE, "--out", str(out)]) == 0
        rows = read_rows(out / "stats.csv")
        assert {r["task"] for r in rows} == {"SFUDA", "LP-ODG", "ALL"}
        for r in rows:
            assert float(r["mlin_adj_r2"]) > float(r["lin_adj_r2"])
        all_row = next(r for r in rows if r["task"] == "ALL")
        assert float(all_row["delta_q"]) > 5.0

    @staticmethod
    def stats_stamp(table, out):
        assert main(["stats", str(table), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["results_table"] \
            == str(table)
        return (out / "stats.csv").read_text().splitlines()[0]

    def test_the_stamp_follows_the_tables_contents_not_its_path(self, tmp_path):
        table = Path(ASSET_TABLE).read_text()
        a, b = tmp_path / "a.csv", tmp_path / "elsewhere" / "b.csv"
        b.parent.mkdir()
        a.write_text(table)
        b.write_text(table)
        first = self.stats_stamp(a, tmp_path / "o1")
        assert self.stats_stamp(b, tmp_path / "o2") == first
        a.write_text("".join(table.splitlines(True)[:-1]))
        assert self.stats_stamp(a, tmp_path / "o3") != first

    def test_blank_lines_are_skipped_like_comments(self, tmp_path):
        table = Path(ASSET_TABLE).read_text()
        spaced = tmp_path / "spaced.csv"
        lines = table.splitlines(True)
        spaced.write_text("".join(lines[:3] + ["\n", "  \n"] + lines[3:]) + "\n")
        assert main(["stats", ASSET_TABLE, "--out", str(tmp_path / "a")]) == 0
        assert main(["stats", str(spaced), "--out", str(tmp_path / "b")]) == 0
        assert read_rows(tmp_path / "a" / "stats.csv") == read_rows(tmp_path / "b" / "stats.csv")

    def test_missing_table_argument(self, tmp_path, capsys):
        assert main(["stats", "--out", str(tmp_path / "o")]) == 1
        assert "needs a results table" in capsys.readouterr().err


class TestReportCommand:
    def test_round_trips_suite_records(self, tmp_path, capsys):
        cfg_dict = base_config()
        cfg_dict["tasks"] = ["LP-ODG", "SFUDA"]
        cfg_dict["methods"] = ["SHOT"]
        cfg_dict["method_configs"] = {"SHOT": {"epochs": 2}}
        cfg = write_config(tmp_path, cfg_dict)
        suite_out = tmp_path / "suite"
        main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(suite_out)])
        rep_out = tmp_path / "report"
        code = main(["report", str(suite_out / "records.csv"),
                     "--out", str(rep_out)])
        assert code == 0
        assert "grouped by method" in capsys.readouterr().out
        points = read_rows(rep_out / "points.csv")
        assert len(points) == 4
        by_method = read_rows(rep_out / "by_method.csv")
        assert sum(int(r["n"]) for r in by_method) == 4
        for group_by in ("norm_kind", "method", "task"):
            assert (rep_out / f"by_{group_by}.csv").exists()

    @staticmethod
    def report_stamp(records, out):
        assert main(["report", str(records), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["records"] == [str(records)]
        return manifest["provenance"]["config_sha256"]

    def test_manifest_reruns_with_no_flag(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        records = tmp_path / "suite" / "records.csv"
        assert main(["suite", "--config", cfg, "--seeds", "0,1",
                     "--out", str(records.parent)]) == 0
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert main(["report", str(records), "--out", str(a)]) == 0
        assert main(["report", "--config", str(a / "manifest.json"), "--out", str(b)]) == 0
        assert sorted(os.listdir(a)) == sorted(os.listdir(b))
        for name in os.listdir(a):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_stamp_follows_the_records_contents(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        records = tmp_path / "suite" / "records.csv"
        main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(records.parent)])
        before = self.report_stamp(records, tmp_path / "r1")
        records.write_text("".join(records.read_text().splitlines(True)[:-1]))
        assert self.report_stamp(records, tmp_path / "r2") != before

    def test_stamp_ignores_the_records_path(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        records = tmp_path / "suite" / "records.csv"
        main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(records.parent)])
        moved = tmp_path / "elsewhere.csv"
        moved.write_bytes(records.read_bytes())
        assert (self.report_stamp(records, tmp_path / "r1")
                == self.report_stamp(moved, tmp_path / "r2"))

    @pytest.mark.parametrize("error", ["ValueError: first\n# second",
                                       "ValueError: first\n\n# second"])
    def test_a_quoted_comment_or_blank_line_stays_in_its_field(self, tmp_path, error):
        records = [ExperimentRecord("SFUDA", "SHOT", "s", "t", "layernorm", seed, 70.0, 71.0,
                                    -1.0, True, 0.0, error if seed == 0 else None)
                   for seed in range(3)]
        path = tmp_path / "records.csv"
        path.write_text(sfuda.cli._table(sfuda.cli._record_rows(records), RECORD_COLUMNS,
                                         "csv", "# a stamp\n"))
        assert sfuda.cli._read_records(str(path))[1] == records
        out = tmp_path / "report"
        assert main(["report", str(path), "--out", str(out)]) == 0
        assert [row["n"] for row in read_rows(out / "by_method.csv")] == ["3"]

    def test_errored_records_fill_the_error_rate_column(self, tmp_path, monkeypatch):
        cfg_cls, _ = ADAPT_METHODS["SHOT"]

        def raising(model, feats, cfg, dist=None):
            raise RuntimeError("adapter broke")

        monkeypatch.setitem(ADAPT_METHODS, "SHOT", (cfg_cls, raising))
        cfg = {**base_config(), "tasks": ["LP-ODG", "SFUDA"], "methods": ["SHOT"]}
        suite_out, rep_out = tmp_path / "suite", tmp_path / "report"
        main(["suite", "--config", write_config(tmp_path, cfg), "--seed", "0",
              "--out", str(suite_out)])
        assert main(["report", str(suite_out / "records.csv"), "--out", str(rep_out)]) == 0
        rows = {r["group"]: r for r in read_rows(rep_out / "by_method.csv")}
        assert (rows["SHOT"]["error_rate"], rows["SHOT"]["failure_rate"]) == ("100.0", "nan")
        assert (rows[""]["error_rate"], rows[""]["failure_rate"]) == ("0.0", "0.0")

    @pytest.mark.parametrize("fmt", ["csv", "tsv"])
    @pytest.mark.parametrize("field, value, message", [
        ("accuracy", "abc", "could not convert string to float: 'abc'"),
        ("seed", "x", "invalid literal for int() with base 10: 'x'"),
        (None, None, "expected 11 fields, not 10"),
        ("failed", "2", "failed must be 0 or 1, not '2'"),
    ])
    def test_a_bad_row_names_its_file_and_line(self, tmp_path, capsys, fmt, field,
                                              value, message):
        suite_out = tmp_path / "suite"
        assert main(["suite", "--config", write_config(tmp_path, base_config()),
                     "--seeds", "0,1", "--format", fmt, "--out", str(suite_out)]) == 0
        records = suite_out / f"records.{fmt}"
        assert main(["report", str(records), "--out", str(tmp_path / "ok")]) == 0
        delim = "," if fmt == "csv" else "\t"
        lines = records.read_text().splitlines()
        header, fields = lines[1].split(delim), lines[3].split(delim)
        if field is None:
            fields.pop()
        else:
            fields[header.index(field)] = value
        lines[3] = delim.join(fields)
        records.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report"
        capsys.readouterr()
        assert main(["report", str(records), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {records}: line 4: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, keys", [
        ("sweep", ["epochs", "ce_weight"]),
        ("distgrid", ["cell", "workers", "local_batch"]),
    ])
    def test_key_columns_get_their_own_tables(self, tmp_path, capsys, command, keys):
        cfg = sweep_config() if command == "sweep" else distgrid_config()
        runs, rep_out = tmp_path / "runs", tmp_path / "report"
        assert main([command, "--config", write_config(tmp_path, cfg), "--seeds", "0,1",
                     "--out", str(runs)]) == 0
        records = read_rows(runs / "records.csv")
        capsys.readouterr()
        assert main(["report", str(runs / "records.csv"), "--out", str(rep_out)]) == 0
        printed = capsys.readouterr().out
        assert sorted(os.listdir(rep_out)) == sorted(
            ["manifest.json", "points.csv"] +
            [f"by_{k}.csv" for k in ["norm_kind", "method", "task", *keys]])
        for key in keys:
            assert f"-- grouped by {key}\n" in printed
            rows = read_rows(rep_out / f"by_{key}.csv")
            assert [r["group"] for r in rows] == sorted({r[key] for r in records})
            for row in rows:
                group = [r for r in records if r[key] == row["group"]]
                assert int(row["n"]) == len(group)
                failed = sum(r["failed"] == "1" for r in group)
                assert float(row["failure_rate"]) == 100.0 * failed / len(group)
        points = read_rows(rep_out / "points.csv")
        assert [[p[k] for k in keys] for p in points] == [[r[k] for k in keys]
                                                          for r in records]

    def test_numeric_key_groups_go_by_value(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("\n".join([
            ",".join(RECORD_COLUMNS + ["epochs", "cell"]),
            "SFUDA,SHOT,s,t,layernorm,0,70.0,70.0,0.0,0,,10,16x4",
            "SFUDA,SHOT,s,t,layernorm,0,71.0,70.0,1.0,0,,5,2x4",
            "SFUDA,SHOT,s,t,layernorm,1,69.0,70.0,-1.0,1,,5,16x4",
            "SFUDA,NRC,s,t,batchnorm,0,72.0,70.0,2.0,0,,10,2x4"]) + "\n")
        out = tmp_path / "report"
        assert main(["report", str(records), "--out", str(out)]) == 0
        # 5 before 10; a key that is not all numbers goes by text
        assert [r["group"] for r in read_rows(out / "by_epochs.csv")] == ["5", "10"]
        assert [r["group"] for r in read_rows(out / "by_cell.csv")] == ["16x4", "2x4"]
        assert [r["group"] for r in read_rows(out / "by_method.csv")] == ["NRC", "SHOT"]
        printed = capsys.readouterr().out
        assert printed.index("            5  n=2") < printed.index("           10  n=2")

    def test_records_with_different_columns_are_one_error(self, tmp_path, capsys):
        suite, sweep = tmp_path / "suite", tmp_path / "sweep"
        assert main(["suite", "--config", write_config(tmp_path, base_config()),
                     "--seed", "0", "--out", str(suite)]) == 0
        assert main(["sweep", "--config", write_config(tmp_path, sweep_config()),
                     "--seed", "0", "--out", str(sweep)]) == 0
        out = tmp_path / "report"
        capsys.readouterr()
        assert main(["report", str(suite / "records.csv"), str(sweep / "records.csv"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: {sweep / 'records.csv'}: its columns "
                                           f"differ from those of {suite / 'records.csv'}\n")
        assert not out.exists()

    @pytest.mark.parametrize("extra", [",../x", ",", ",task", ",a,a"])
    def test_a_key_column_must_be_a_distinct_name(self, tmp_path, capsys, extra):
        suite = tmp_path / "suite"
        assert main(["suite", "--config", write_config(tmp_path, base_config()),
                     "--seed", "0", "--out", str(suite)]) == 0
        lines = (suite / "records.csv").read_text().splitlines()
        lines[1] += extra
        lines[2] += "," * extra.count(",")
        (suite / "records.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "report"
        capsys.readouterr()
        assert main(["report", str(suite / "records.csv"), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: {suite / 'records.csv'}: not a records table\n"
        assert not out.exists()

    def test_rejects_a_non_records_file(self, tmp_path, capsys):
        assert main(["report", ASSET_TABLE, "--out", str(tmp_path / "o")]) == 1
        assert "not a records table" in capsys.readouterr().err


def json_values():
    """Any JSON value, kept small, NaN and the infinities among them (json
    reads NaN and Infinity)."""
    scalars = (st.none() | st.booleans() | st.integers(-3, 3)
               | st.floats(-3, 3, allow_nan=False)
               | st.sampled_from([float("nan"), float("inf"), float("-inf")])
               | st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                        max_leaves=4)


def fits(value, kind):
    """Whether the JSON value is of the kind a config field declares, as the
    README states the rule: a float field also takes an integer, but no NaN
    or infinity, and no number field takes a bool."""
    if " | " in kind:
        return any(fits(value, k) for k in kind.split(" | "))
    if kind.startswith("list["):
        return isinstance(value, list) and all(fits(v, kind[5:-1]) for v in value)
    if kind == "float":
        return type(value) in (int, float) and math.isfinite(value)
    return type(value) is {"None": type(None), "int": int, "str": str, "bool": bool,
                           "dict": dict}[kind]


# (command, field, kind): typed fields of the config, each read by its command
CONFIG_FIELDS = [("suite", f"data.generate.{k}", kind) for k, kind in [
    ("num_classes", "int"), ("dim", "int"), ("n_per_class", "int"), ("class_sep", "float"),
    ("seed", "int"), ("shift", "dict"), ("shift.mean_shift", "float | list[float]"),
    ("shift.per_feature_scale", "float | list[float]"), ("shift.rotation_angle", "float"),
    ("shift.rotation_plane", "list[int]"), ("shift.label_noise", "float")]] + [
    ("files", f"data.{side}.{k}", kind) for side in ("source", "target") for k, kind in [
        ("features", "str"), ("num_classes", "int | None"), ("name", "str")]] + [
    ("files", "data.source.labels", "str"), ("files", "data.target.labels", "str"),
    ("suite", "data", "dict"), ("suite", "data.generate", "dict"),
    ("suite", "head", "dict"), ("suite", "head.hidden_dim", "int"),
    ("suite", "head.norm_kind", "str"), ("suite", "train", "dict"),
    ("suite", "train.epochs", "int"), ("suite", "train.learning_rate", "float"),
    ("suite", "train.grad_clip", "float | None"), ("suite", "method_configs", "dict"),
    ("suite", "method_configs.SHOT", "dict"), ("suite", "method_configs.SHOT.ce_weight", "float"),
    ("suite", "method_configs.NRC.K", "int"), ("suite", "tasks", "list[str]"),
    ("suite", "methods", "list[str]"), ("suite", "out_dir", "str"),
    ("suite", "results_table", "str"), ("suite", "seeds", "list[int]"),
    ("suite", "jobs", "int"), ("suite", "format", "str"),
    ("distgrid", "distgrid", "dict"), ("distgrid", "distgrid.methods", "list[str]"),
    ("distgrid", "distgrid.cells", "list[str]"), ("distgrid", "distgrid.sync_batchnorm", "bool"),
    ("sweep", "sweep", "dict"), ("sweep", "sweep.method", "str"),
    ("sweep", "sweep.params", "dict"), ("sweep", "sweep.task", "str"),
]


def run_cli(argv):
    """main(argv) as (exit status, what it wrote to stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line(code, err, out):
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def letters_but_no_number():
    return st.text("abcefnixyz", min_size=1, max_size=6).filter(lambda t: not _is_number(t))


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMalformedInputFuzz:
    """A valid input with one part broken ends the command with one error
    line, exit status 1, no traceback and no output directory."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        pair = tmp_path_factory.mktemp("pair")
        assert run_cli(["gen-data", "--config", write_config(pair, base_config()),
                        "--out", str(pair)])[0] == 0
        return pair

    @given(field=st.sampled_from(CONFIG_FIELDS), value=json_values())
    @example(field=("distgrid", "distgrid.cells", "list[str]"), value=[16])
    @example(field=("distgrid", "distgrid.cells", "list[str]"), value="1x8")
    @example(field=("sweep", "sweep.method", "str"), value=["SHOT"])
    @example(field=("suite", "out_dir", "str"), value=5)
    @example(field=("suite", "results_table", "str"), value=5)
    @FUZZ
    def test_a_config_value_of_the_wrong_type(self, pair, tmp_path, field, value):
        command, path, kind = field
        assume(not fits(value, kind))
        cfg = {"suite": {**base_config(), "tasks": ["SFUDA"], "methods": ["SHOT"]},
               "files": {**base_config(), "data": file_data(pair)},
               "distgrid": distgrid_config(), "sweep": sweep_config()}[command]
        section = cfg
        *parents, name = path.split(".")
        for parent in parents:
            section = section.setdefault(parent, {})
        section[name] = value
        out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
        config = write_config(out.parent, cfg)
        code, err = run_cli(["suite" if command == "files" else command,
                             "--config", config, "--out", str(out)])
        assert_one_error_line(code, err, out)
        # the line names the section, then the field
        assert err.startswith(f"error: {'.'.join(parents)}") and name in err, err

    @given(side=st.sampled_from(["source", "target"]), part=st.sampled_from(
        ["cut", "extend", "rows", "empty", "magic", "nan", "label", "drop label"]),
        cut=st.integers(0, 15), text=letters_but_no_number())
    @example(side="target", part="empty", cut=0, text="x")
    @FUZZ
    def test_a_malformed_embeddings_file(self, pair, tmp_path, side, part, cut, text):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        for name in os.listdir(pair):
            (work / name).write_bytes((pair / name).read_bytes())
        features, labels = work / f"{side}_features.bin", work / f"{side}_labels.txt"
        blob, lines = features.read_bytes(), labels.read_text().splitlines()
        n, d = struct.unpack("<II", blob[4:12])
        if part == "cut":
            features.write_bytes(blob[:cut] if cut < 12 else blob[:-cut])
        elif part == "extend":
            features.write_bytes(blob + b"\0" * (cut + 1))
        elif part == "rows":  # a row count that does not match the payload
            features.write_bytes(blob[:4] + struct.pack("<I", cut) + blob[8:])
        elif part == "empty":  # no rows, and so no labels
            features.write_bytes(blob[:4] + struct.pack("<I", 0) + blob[8:16])
            labels.write_text("")
        elif part == "magic":
            features.write_bytes(b"XXXX" + blob[4:])
        elif part == "nan":
            features.write_bytes(blob[:16 + 4 * (cut % (n * d))] + struct.pack("<f", np.nan)
                                 + blob[20 + 4 * (cut % (n * d)):])
        elif part == "label":
            lines[cut % n] = text
            labels.write_text("\n".join(lines) + "\n")
        else:
            labels.write_text("\n".join(lines[:-1 - cut % n]) + "\n")
        out = work / "out"
        code, err = run_cli(["suite", "--config", write_config(
            work, {**base_config(), "data": file_data(work)}), "--out", str(out)])
        assert_one_error_line(code, err, out)
        assert side in err  # the file's path, or the dataset's name

    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        runs = tmp_path_factory.mktemp("runs")
        cfg = {**base_config(), "tasks": ["LP-ODG", "SFUDA"], "methods": ["SHOT"],
               "method_configs": {"SHOT": {"epochs": 1}}}
        assert run_cli(["suite", "--config", write_config(runs, cfg), "--seeds", "0,1",
                        "--out", str(runs)])[0] == 0
        return (runs / "records.csv").read_text().splitlines()

    @given(row=st.integers(0, 3), column=st.sampled_from(
        ["seed", "accuracy", "baseline_lp_odg", "delta", "failed", None]),
        text=letters_but_no_number())
    @FUZZ
    def test_a_malformed_records_file(self, records, tmp_path, row, column, text):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        lines = list(records)
        fields = lines[2 + row].split(",")
        if column is None:
            fields.pop()
        else:
            fields[RECORD_COLUMNS.index(column)] = text
        lines[2 + row] = ",".join(fields)
        (work / "records.csv").write_text("\n".join(lines) + "\n")
        out = work / "out"
        code, err = run_cli(["report", str(work / "records.csv"), "--out", str(out)])
        assert_one_error_line(code, err, out)

    @given(row=st.integers(0, 5), column=st.sampled_from(["top1", "pretrain", "accuracy"]),
           text=letters_but_no_number() | st.sampled_from(["101", "-1"]))
    @FUZZ
    def test_a_malformed_results_table(self, tmp_path, row, column, text):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        with open(ASSET_TABLE) as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        fields = lines[1 + row].split(",")
        fields[header.index(column)] = text
        lines[1 + row] = ",".join(fields)
        (work / "table.csv").write_text("\n".join(lines) + "\n")
        out = work / "out"
        code, err = run_cli(["stats", str(work / "table.csv"), "--out", str(out)])
        assert_one_error_line(code, err, out)
