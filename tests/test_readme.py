"""The README's Python API block runs as written and prints the values its
comments quote, and the CLI prints every concrete `error:` line it quotes."""
import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from sfuda.cli import RECORD_COLUMNS, main

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block():
    text = README.read_text()
    section = text[text.index("## Python API"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_block_prints_its_quoted_values():
    block = python_api_block()
    quoted = re.findall(r"^print\(\"(\w+)\".*#\s*([-\d.]+)\s*$", block, re.M)
    assert [label for label, _ in quoted] == ["before", "after"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = dict(line.split() for line in out.getvalue().splitlines())
    for label, value in quoted:
        assert f"{float(printed[label]):.1f}" == value, label


# a word the README writes for a part of the line that varies
PLACEHOLDER = re.compile(r"\b(SECTION|KEY|KIND|VALUE|RULE|PATH|N|M|METHOD|CELL|NAME|S)\b"
                         r"|\.\.\.")


def concrete_error_quotes():
    """Each `error: ...` code span of the README that has a message and no
    placeholder, its line breaks read as spaces."""
    quotes = [" ".join(q.split()) for q in re.findall(r"`(error:[^`]*)`", README.read_text())]
    return [q for q in quotes if q != "error:" and not PLACEHOLDER.search(q)]


def generate(**shift):
    """A data section drawing a 3-class pair, its target shifted by shift."""
    return {"generate": {"num_classes": 3, "dim": 5, "n_per_class": 12, "class_sep": 3.0,
                         "shift": shift}}


FILES = {"features": "source.bin", "labels": "source.txt"}
CONFIG = {"data": generate(), "tasks": ["SFUDA"], "methods": ["SHOT"],
          "head": {"hidden_dim": 8}, "train": {"epochs": 1}}


def sweep(**changes):
    return {"sweep": {"method": "SHOT", "params": {"epochs": [1]}, **changes}}


# each concrete quote: the command that prints it, and the top-level keys of
# CONFIG it replaces
ERRORS = {
    "error: train: epochs must be int, not 'x'": ("suite", {"train": {"epochs": "x"}}),
    "error: distgrid: cells must be a list, not '1x8'":
        ("distgrid", {"distgrid": {"cells": "1x8"}}),
    "error: config: out_dir must be str, not 5": ("suite", {"out_dir": 5}),
    "error: method_configs.SHOT: momentum must lie in [0, 1)":
        ("suite", {"method_configs": {"SHOT": {"momentum": 1.0}}}),
    "error: head: unknown norm_kind 'groupnorm'": ("suite", {"head": {"norm_kind": "groupnorm"}}),
    "error: methods: unknown method 'SHOTT'": ("suite", {"methods": ["SHOTT"]}),
    "error: seed 0 is given more than once": ("suite", {"seeds": [0, 0]}),
    "error: jobs must be a positive integer, not '2'": ("suite", {"jobs": "2"}),
    "error: data needs either 'generate' or both 'source' and 'target'":
        ("suite", {"data": {"source": FILES}}),
    "error: data.generate: rotation_plane must name two distinct feature axes, not [0]":
        ("suite", {"data": generate(rotation_plane=[0])}),
    "error: data.target needs labels":
        ("suite", {"data": {"source": FILES, "target": {"features": FILES["features"]}}}),
    "error: train: learning_rate must be finite, not nan":
        ("suite", {"train": {"learning_rate": float("nan")}}),
    "error: sweep.params: epochs must be int, not 'x'":
        ("sweep", sweep(params={"epochs": [1, "x"]})),
    "error: sweep.params: SHOT has no parameter 'neighbors'":
        ("sweep", sweep(params={"neighbors": [3]})),
    "error: sweep.params: epochs needs a nonempty list of values":
        ("sweep", sweep(params={"epochs": []})),
    "error: sweep.method: unknown method 'SHOTT'": ("sweep", sweep(method="SHOTT")),
    "error: sweep.method: SCA exposes no swept hyperparameters":
        ("sweep", sweep(method="SCA", params={"K": [3]})),
    "error: sweep.task: LP-ODG does not take a method": ("sweep", sweep(task="LP-ODG")),
    "error: distgrid.methods: unknown method 'SHOTT'":
        ("distgrid", {"distgrid": {"methods": ["SHOTT"]}}),
    "error: distgrid.cells: grid cells must share one global batch size":
        ("distgrid", {"distgrid": {"cells": ["1x8", "2x8"]}}),
    "error: train: seed is derived from each record's seed": ("suite", {"train": {"seed": 1}}),
    "error: out/records.csv: line 4: could not convert string to float: 'abc'":
        ("report", {"records": ["out/records.csv"]}),
}


def test_every_row_of_the_table_is_quoted():
    assert sorted(set(ERRORS) - set(concrete_error_quotes())) == []


@pytest.mark.parametrize("quote", concrete_error_quotes())
def test_the_cli_prints_the_quoted_error(tmp_path, monkeypatch, capsys, quote):
    assert quote in ERRORS, "a concrete README error quote needs its command in ERRORS"
    command, changes = ERRORS[quote]
    monkeypatch.chdir(tmp_path)
    # a records table whose line 4 holds a bad accuracy; FILES names no file,
    # since every other quoted error comes before a file opens
    Path("out").mkdir()
    row = ["SFUDA", "SHOT", "source", "target", "layernorm", "0", "75.0", "70.0", "5.0", "0", ""]
    lines = [RECORD_COLUMNS, row, row, row[:6] + ["abc"] + row[7:]]
    Path("out/records.csv").write_text("".join(",".join(ln) + "\n" for ln in lines))
    Path("cfg.json").write_text(json.dumps({**CONFIG, **changes}))
    assert main([command, "--config", "cfg.json", "--out", "result"]) == 1
    assert capsys.readouterr().err == f"{quote}\n"
    assert not Path("result").exists()
