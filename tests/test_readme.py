"""The README's Python API block runs as written and prints the values its
comments quote."""
import contextlib
import io
import re
from pathlib import Path

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
