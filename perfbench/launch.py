"""Child process of the benchmark: the `sfuda` console script plus marks.

    python3 perfbench/launch.py --marks FILE [--setup-only] [--trace FILE] -- ARGS

runs `sfuda.cli.main(ARGS)` from this checkout's `src/`, exactly as the
installed `sfuda` command would. It writes to `--marks` the CLOCK_MONOTONIC
time at which the run reached its first record or cell (the entry of
`run_suite` or `run_distributed_grid`) and the time `main` returned. With
`--setup-only` it stops at that first mark. With `--trace` it installs the
span wrappers of `tracer.py` before the run and dumps the spans afterwards.

    python3 perfbench/launch.py --environment

imports the package and prints the numeric environment as one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


class SetupDone(BaseException):
    """Ends a --setup-only run; not an Exception, so the CLI does not catch it."""


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                               "unset (library default)"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--marks")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("--environment", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import sfuda
    import sfuda.cli
    if not Path(sfuda.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sfuda from {sfuda.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.environment:
        print(json.dumps(environment()))
        return 0

    import tracer

    spans = None
    if args.trace:
        spans = tracer.Tracer()
        tracer.install(spans)

    marks = {}

    def mark_first(fn):
        @functools.wraps(fn)
        def marked(*a, **kw):
            marks.setdefault("first_record", time.monotonic())
            if args.setup_only:
                raise SetupDone
            return fn(*a, **kw)
        return marked

    for fn in (sfuda.harness.run_suite, sfuda.distsim.run_distributed_grid):
        tracer.replace_everywhere(fn, mark_first(fn))

    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    try:
        code = sfuda.cli.main(cli_args)
    except SetupDone:
        code = 0
    marks["main_end"] = time.monotonic()
    with open(args.marks, "w") as fh:
        json.dump(marks, fh)
    if spans is not None:
        spans.dump(args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
