"""The reference runs' outputs are pinned. Each run's records.csv and summary
table must match its sha256 prefix in ROADMAP.md's table, at `--jobs` 1 and 2
alike. The runs go through scripts/output_hashes.py's own functions, on the
benchmark's own inputs. Manifests are not pinned: they move with provenance
fields. A change that moves an output on purpose edits its pin here and says
why.

Those outputs hold accuracies, so they move only when a prediction flips.
The trained heads are pinned too: a digest of each one's parameters and
batchnorm running statistics sees a change in a layer's last bit."""
import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from sfuda.core import make_rng
from sfuda.data import DomainDataset, ShiftSpec, gen_gaussian_pair
from sfuda.engine import DistConfig
from sfuda.harness import openblas_runtime
from sfuda.head import HeadConfig, TrainConfig, init_head, train_supervised
from sfuda.neighbors import AadConfig, NrcConfig, aad_adapt, nrc_adapt
from sfuda.pcsr import PcsrConfig, pcsr_adapt
from sfuda.shot import ShotConfig, shot_adapt

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
# (head, dtype) -> sha256 prefix of its parameters and running statistics
# (see trained_heads)
HEAD_PINS = {
    ("classifier_only", "float32"): "8a0f12c79f4b",
    ("full", "float32"): "3482e437fdb7",
    ("SHOT", "float32"): "dfdde386699b",
    ("PCSR", "float32"): "629c89da6549",
    ("NRC 1x64", "float32"): "9232e2fcb704",
    ("AAD 1x64", "float32"): "1bed72a723d0",
    ("NRC 16x4", "float32"): "5e8d50fc18ae",
    ("AAD 16x4", "float32"): "31eef48d06be",
    ("classifier_only", "float64"): "c2d05f2e807b",
    ("full", "float64"): "cc5c451ad6b2",
    ("SHOT", "float64"): "ad94e77071fc",
    ("PCSR", "float64"): "31b0407bd293",
    ("NRC 1x64", "float64"): "178102aec9b7",
    ("AAD 1x64", "float64"): "e6f7dec7b4af",
    ("NRC 16x4", "float64"): "af71f7a4819e",
    ("AAD 16x4", "float64"): "ab4bb2fcd213",
}


def mismatch() -> str:
    return f"pinned on OpenBLAS kernel {PINNED_ON}; this process runs {openblas_runtime()}"


def head_digest(head) -> str:
    sha = hashlib.sha256()
    for _, value in sorted(head.params().items()):
        sha.update(value.tobytes())
    sha.update(head.norm.running_mean.tobytes())
    sha.update(head.norm.running_var.tobytes())
    return sha.hexdigest()[:12]


@functools.cache
def trained_heads(dtype: str) -> dict[str, str]:
    """head -> digest, in dtype: a batchnorm head's first transfer at each
    scope on a small generated pair, and each method's adaptation of its
    linear probe, NRC and AAD in two worker layouts. The first transfers,
    SHOT and PCSR step on 24-row batches, so batchnorm divides by a count
    that is no power of two; the cells' shards hold 64 and 4 rows."""
    shift = ShiftSpec(mean_shift=0.3, rotation_angle=0.4)
    pair = gen_gaussian_pair(3, 6, 30, 3.0, shift, make_rng(17))
    source, target = (DomainDataset(ds.name, ds.features.astype(dtype), ds.labels, 3)
                      for ds in pair)
    head = init_head(HeadConfig(6, 3, hidden_dim=12, norm_kind="batchnorm", seed=5))
    train = TrainConfig(epochs=4, batch_size=24, seed=6)
    first = {scope: train_supervised(head, source, scope, train)
             for scope in ("classifier_only", "full")}
    probe = first["classifier_only"]
    adapted = {
        "SHOT": shot_adapt(probe, target.features, ShotConfig(epochs=2, batch_size=24, seed=7)),
        "PCSR": pcsr_adapt(probe, target.features, PcsrConfig(epochs=2, batch_size=24, seed=7)),
    }
    for cell in (DistConfig(1, 64), DistConfig(16, 4)):
        adapted[f"NRC {cell.label}"] = nrc_adapt(probe, target.features,
                                                 NrcConfig(epochs=2, seed=7), cell)
        adapted[f"AAD {cell.label}"] = aad_adapt(probe, target.features,
                                                 AadConfig(epochs=2, seed=7), cell)
    return {name: head_digest(h) for name, h in {**first, **adapted}.items()}


@pytest.mark.parametrize("name, dtype", list(HEAD_PINS))
def test_a_trained_head_matches_its_pin(name, dtype):
    assert trained_heads(dtype)[name] == HEAD_PINS[name, dtype], mismatch()


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
        mismatch()
