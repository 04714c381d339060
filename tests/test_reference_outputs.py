"""The reference runs' outputs are pinned. Each run's records.csv and summary
table must match its sha256 prefix in ROADMAP.md's table, at `--jobs` 1 and 2
alike. The runs go through scripts/output_hashes.py's own functions, on the
benchmark's own inputs. Manifests are not pinned: they move with provenance
fields. A change that moves an output on purpose edits its pin here and says
why."""
import contextlib
import ctypes
import importlib.util
import sys
from pathlib import Path

import pytest

from sfuda.harness import _openblas_libraries

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_hashes.py"
# the OpenBLAS kernel that DYNAMIC_ARCH picked where the pins were recorded;
# the hashes depend on it
PINNED_ON = "SkylakeX"
# (workload, data seed) -> output file -> sha256 prefix
PINS = {
    ("suite-demo", 7): {"records.csv": "0f370dc7ec58", "aggregates.csv": "e0d32b394e90"},
    ("distgrid-shard", 101): {"records.csv": "bedf8c76522a", "distgrid.csv": "da9789d8bc67"},
    ("distgrid-shard", 105): {"records.csv": "db0dda75a51b", "distgrid.csv": "516eb950e827"},
    ("suite-scale", 101): {"records.csv": "71489b9eeb10", "aggregates.csv": "9a09e6d51f09"},
}


def blas_kernel() -> str:
    """The kernel each OpenBLAS loaded in this process picked, or "unknown"."""
    names = []
    for path in _openblas_libraries():
        with contextlib.suppress(OSError, AttributeError):  # unloadable, or no such symbol
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            names.append(corename().decode())
    return ", ".join(names) or "unknown"


@pytest.fixture(scope="module")
def script():
    """output_hashes.py as a module, and perfbench/run.py as it loads it;
    sys.path is restored afterwards."""
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))
        yield module, module.perfbench()


@pytest.mark.parametrize("name, seed", list(PINS))
def test_a_reference_run_writes_its_pinned_outputs(script, tmp_path, name, seed):
    hashes, bench = script
    workload = bench.WORKLOADS[name]
    workload.write_inputs(tmp_path, seed)
    serial, pooled = (hashes.run_outputs(workload, tmp_path, jobs) for jobs in (1, 2))
    assert serial is not None and pooled is not None  # the failing run's stderr is printed
    assert serial == pooled
    assert {file: serial[file][:12] for file in PINS[name, seed]} == PINS[name, seed], \
        f"pinned on OpenBLAS kernel {PINNED_ON}; this process runs {blas_kernel()}"
