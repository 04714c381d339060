import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import sfuda
from sfuda.cli import main, parse_seeds
from sfuda.data import load_embeddings
from sfuda.harness import ADAPT_METHODS

ASSET_TABLE = os.path.join(os.path.dirname(__file__), "..", "assets",
                           "example_results.csv")


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
    def test_the_cli_loads_neither_scipy_special_nor_multiprocessing(self, tmp_path):
        # gelu heads and pooled suites import them when they run
        proc = start_cli(tmp_path, ["--version"], patch="import sfuda.cli\nprint(sorted("
                         "m for m in ('scipy.special', 'multiprocessing') if m in sys.modules))")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        assert out.splitlines()[0] == "[]"


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

    def test_manifest_reruns_as_config(self, tmp_path):
        cfg = write_config(tmp_path, self.suite_config())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(a)])
        code = main(["suite", "--config", str(a / "manifest.json"),
                     "--seeds", "0,1", "--out", str(b)])
        assert code == 0
        assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()

    def test_manifest_records_the_numeric_environment(self, tmp_path):
        cfg = write_config(tmp_path, self.suite_config())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["suite", "--config", cfg, "--seeds", "0,1", "--out", str(a)]) == 0
        prov = json.loads((a / "manifest.json").read_text())["provenance"]
        assert prov["numpy"] == np.__version__
        assert prov["scipy"] and prov["blas"]
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
        assert (out / "manifest.json").exists() and (out / "aggregates.csv").exists()

    def test_raising_grid_cell_sets_the_exit_status(self, tmp_path, capsys):
        # a batchnorm head cannot take one-row shards, so 64x1 raises
        cfg = distgrid_config(cells=("1x64", "64x1"))
        cfg["head"]["norm_kind"] = "batchnorm"
        out = tmp_path / "out"
        assert main(["distgrid", "--config", write_config(tmp_path, cfg), "--seed", "0",
                     "--out", str(out)]) == 1
        err = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert len(err) == 1
        assert err[0].startswith("error: 3 of 6 grid records raised (first: SHOT 64x1 seed 0")
        rows = read_rows(out / "distgrid.csv")
        assert [r["cell"] for r in rows] == ["1x64", "64x1"]
        for m in ("SHOT", "NRC", "AAD"):
            assert "nan" not in rows[0][m]
            assert rows[1][m] == "nan ± 0.00"
        assert (out / "manifest.json").exists()

    @pytest.mark.parametrize("values", [[], 2])
    def test_sweep_parameter_needs_a_nonempty_list(self, tmp_path, capsys, values):
        cfg_dict = base_config()
        cfg_dict["sweep"] = {"method": "SHOT", "params": {"epochs": values}}
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, cfg_dict),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: sweep parameter 'epochs' needs a nonempty list")
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
        cfg_dict = base_config()
        cfg_dict["tasks"] = ["SFUDA"]
        cfg_dict["sweep"] = {"method": "SHOT",
                             "params": {"epochs": [1, 2], "ce_weight": [0.0, 0.3]}}
        cfg = write_config(tmp_path, cfg_dict)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--seed", "0",
                     "--out", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 4
        assert all(np.isfinite(float(r["mean"])) for r in rows)
        assert [r["epochs"] for r in rows] == ["1", "1", "2", "2"]


    def test_jobs_flag_does_not_change_the_sweep(self, tmp_path):
        cfg_dict = base_config()
        cfg_dict["sweep"] = {"method": "SHOT",
                             "params": {"epochs": [1, 2], "ce_weight": [0.0, 0.3]}}
        cfg = write_config(tmp_path, cfg_dict)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--seeds", "0,1", "--out", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--seeds", "0,1", "--jobs", "2",
                     "--out", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()


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

    def test_rejects_a_non_records_file(self, tmp_path, capsys):
        assert main(["report", ASSET_TABLE, "--out", str(tmp_path / "o")]) == 1
        assert "not a records table" in capsys.readouterr().err
