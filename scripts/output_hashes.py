#!/usr/bin/env python3
"""Print the sha256 prefix of every output file of the six reference runs,
and check that `--jobs 1` and `--jobs 2` write the same bytes.

    python3 scripts/output_hashes.py [WORKLOAD ...]

The reference runs are suite-demo at data seeds 0 and 7, distgrid-shard at
101 and 105, and suite-scale at 101 and 113 (all six when no workload is
named). Each run's inputs are written by perfbench/run.py's own input
builders, so they are the benchmark's inputs. `sfuda` then runs on them
from this checkout's src/ with the workload's command line, once at
`--jobs 1` and once at `--jobs 2`, and one line is printed per output file:

    suite-demo 0 records.csv 737d3048b80f

A file the two runs wrote differently gets both prefixes and DIFFERS, and
the exit status is 1; so does a run that fails. Inputs and outputs live in
a temporary directory that is removed on exit. To hash another revision,
copy this script into its checkout and run it there.
"""

import hashlib
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = (("suite-demo", 0), ("suite-demo", 7), ("distgrid-shard", 101),
             ("distgrid-shard", 105), ("suite-scale", 101), ("suite-scale", 113))


def perfbench():
    """perfbench/run.py as a module; it imports its sibling tracer.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
    spec.loader.exec_module(module)
    return module


def command_line(cli_args, jobs: int) -> list[str]:
    """The workload's CLI arguments with --jobs set to jobs."""
    args = list(cli_args)
    if "--jobs" in args:
        i = args.index("--jobs")
        del args[i:i + 2]
    return args + ["--jobs", str(jobs)]


def run_outputs(workload, work: Path, jobs: int) -> dict[str, str] | None:
    """file name -> sha256 of what one run wrote, or None if it failed."""
    out = work / f"out-jobs{jobs}"
    env = {**workload.child_env(), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "sfuda.cli",
                           *command_line(workload.cli_args, jobs), "--out", out.name],
                          cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  --jobs {jobs} exited {proc.returncode}: {proc.stderr.strip()}")
        return None
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def main(argv: list[str]) -> int:
    bench = perfbench()
    unknown = sorted(set(argv) - {name for name, _ in REFERENCE})
    if unknown:
        print(f"error: unknown workload(s) {', '.join(unknown)}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory(prefix="sfuda-hashes-") as tmp:
        for name, seed in REFERENCE:
            if argv and name not in argv:
                continue
            workload = bench.WORKLOADS[name]
            work = Path(tmp) / f"{name}-{seed}"
            work.mkdir()
            workload.write_inputs(work, seed)
            serial, pooled = (run_outputs(workload, work, jobs) for jobs in (1, 2))
            if serial is None or pooled is None:
                ok = False
                continue
            for file in sorted(set(serial) | set(pooled)):
                a, b = serial.get(file, "-" * 12), pooled.get(file, "-" * 12)
                same = a == b
                ok &= same
                print(f"{name} {seed} {file} {a[:12]}"
                      + ("" if same else f" {b[:12]} DIFFERS (--jobs 1, --jobs 2)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
