"""Span tracing for the benchmark, installed from outside the package.

`install` wraps one function per layer boundary. A wrapper replaces every
reference to the original that an `sfuda.*` module holds: module attributes
(so `from .core import knn_indices` in `sfuda.neighbors` is covered too),
values of module-level dicts, and tuples inside them (the `ADAPT_METHODS`
table), plus class attributes for methods. Spans stay in memory and carry
the thread they ran on and the record they belong to; `Tracer.dump` writes
them out once the traced program has finished.

`summarize` turns a dump into the per-layer metrics. Self time is a span's
duration minus the part of it that its child spans cover, children on other
threads included (the `--jobs` workers of `run_suite`).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import os
import sys
import threading
import time

# (layer name, module, attribute); a dotted attribute is a method.
LAYERS = (
    ("core.knn_indices", "sfuda.core", "knn_indices"),
    ("head.forward", "sfuda.head", "forward"),
    ("head.backward", "sfuda.head", "backward"),
    ("head.sgd_step", "sfuda.head", "sgd_step"),
    ("head.train_supervised", "sfuda.head", "train_supervised"),
    ("harness.run_task", "sfuda.harness", "run_task"),
    ("harness.run_suite", "sfuda.harness", "run_suite"),
    ("sca.spherical_kmeans", "sfuda.sca", "spherical_kmeans"),
    ("shot.label_pass", "sfuda.shot", "_label_pass"),
    ("shot.im_loss", "sfuda.shot", "im_loss"),
    ("shot.run_im_ce_loop", "sfuda.shot", "run_im_ce_loop"),
    ("neighbors.nrc_loss", "sfuda.neighbors", "nrc_loss"),
    ("neighbors.aad_loss", "sfuda.neighbors", "aad_loss"),
    ("neighbors.bank_refresh", "sfuda.neighbors", "MemoryBank.refresh"),
    ("neighbors.sample_backgrounds", "sfuda.neighbors", "sample_backgrounds"),
    ("pcsr.polycentric_refine", "sfuda.pcsr", "_polycentric_refine"),
    ("pcsr.mixup_batch", "sfuda.pcsr", "mixup_batch"),
    ("engine.sharded_step", "sfuda.engine", "sharded_step"),
    ("distsim.run_distributed_grid", "sfuda.distsim", "run_distributed_grid"),
    ("data.load", "sfuda.data", "load_embeddings"),
    ("cli.emit", "sfuda.cli", "_emit"),
    # adaptation entry points: they open a record inside a distgrid and name
    # its cell; no metric reads their own time
    ("adapt.SCA", "sfuda.sca", "sca_adapt"),
    ("adapt.SHOT", "sfuda.shot", "shot_adapt"),
    ("adapt.NRC", "sfuda.neighbors", "nrc_adapt"),
    ("adapt.AAD", "sfuda.neighbors", "aad_adapt"),
    ("adapt.PCSR", "sfuda.pcsr", "pcsr_adapt"),
)

# spans that start a record when no enclosing span already belongs to one
RECORD_SPANS = {"harness.run_task", "adapt.SCA", "adapt.SHOT", "adapt.NRC",
                "adapt.AAD", "adapt.PCSR"}
LOSS_SPANS = {"neighbors.nrc_loss", "neighbors.aad_loss"}

# Per-layer metrics in report order: name -> (unit, better).
PER_LAYER = {
    "core.knn_indices.calls": ("count", "lower"),
    "core.knn_indices.self_s": ("s", "lower"),
    "core.knn_indices.rows_ranked": ("count", "lower"),
    "core.knn_indices.rows_used_ratio": ("ratio", "higher"),
    "core.knn_indices.redundant_share": ("ratio", "lower"),
    "head.forward.calls": ("count", "lower"),
    "head.forward.self_s": ("s", "lower"),
    "head.forward.rows": ("count", "lower"),
    "head.backward.calls": ("count", "lower"),
    "head.backward.self_s": ("s", "lower"),
    "head.sgd_step.calls": ("count", "lower"),
    "head.sgd_step.self_s": ("s", "lower"),
    "head.train_supervised.calls": ("count", "lower"),
    "head.train_supervised.self_s": ("s", "lower"),
    "harness.run_task.calls": ("count", "lower"),
    "harness.run_task.self_s": ("s", "lower"),
    "harness.run_suite.self_s": ("s", "lower"),
    "harness.first_transfer.useful_ratio": ("ratio", "higher"),
    "sca.spherical_kmeans.calls": ("count", "lower"),
    "sca.spherical_kmeans.self_s": ("s", "lower"),
    "sca.spherical_kmeans.iters": ("count", "lower"),
    "shot.label_pass.calls": ("count", "lower"),
    "shot.label_pass.self_s": ("s", "lower"),
    "shot.im_loss.self_s": ("s", "lower"),
    "shot.run_im_ce_loop.self_s": ("s", "lower"),
    "neighbors.nrc_loss.self_s": ("s", "lower"),
    "neighbors.aad_loss.self_s": ("s", "lower"),
    "neighbors.bank_refresh.self_s": ("s", "lower"),
    "neighbors.sample_backgrounds.calls": ("count", "lower"),
    "neighbors.sample_backgrounds.self_s": ("s", "lower"),
    "pcsr.polycentric_refine.self_s": ("s", "lower"),
    "pcsr.mixup_batch.self_s": ("s", "lower"),
    "engine.sharded_step.calls": ("count", "lower"),
    "engine.sharded_step.self_s": ("s", "lower"),
    "engine.shards": ("count", "lower"),
    "engine.shard_rows_mean": ("rows", "higher"),
    "distsim.run_distributed_grid.self_s": ("s", "lower"),
    "data.load.self_s": ("s", "lower"),
    "data.load.bytes": ("bytes", "lower"),
    "cli.emit.self_s": ("s", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}


def _digest(*parts: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(p)
    return h.hexdigest()


def replace_everywhere(old, new) -> int:
    """Point every reference an `sfuda.*` module holds on `old` at `new`.

    Returns how many references were replaced."""
    mods = [m for n, m in sys.modules.items() if n == "sfuda" or n.startswith("sfuda.")]

    def swap(holder: dict, setter) -> int:
        count = 0
        for key, val in list(holder.items()):
            if isinstance(key, str) and key.startswith("__"):
                continue
            if val is old:
                setter(key, new)
                count += 1
            elif isinstance(val, dict):
                count += swap(val, val.__setitem__)
            elif isinstance(val, tuple) and any(v is old for v in val):
                setter(key, tuple(new if v is old else v for v in val))
                count += 1
        return count

    replaced = 0
    for mod in mods:
        replaced += swap(vars(mod), functools.partial(setattr, mod))
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == mod.__name__:
                replaced += swap(dict(vars(val)), functools.partial(setattr, val))
    return replaced


class Tracer:
    """In-memory span recorder. A span is
    [id, parent, name, thread, record, cell, start, end, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[list]] = {}
        self._last_bank: dict[int, str] = {}
        self._main = threading.main_thread().ident

    def _stack(self, tid: int) -> list[list]:
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        return stack

    def _parent(self, tid: int) -> list | None:
        stack = self._stack(tid)
        if stack:
            return stack[-1]
        # a pool worker's first span hangs off what the main thread is running
        main = self._stacks.get(self._main)
        return main[-1] if tid != self._main and main else None

    def wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            parent = self._parent(tid)
            span = [next(self._ids), parent[0] if parent else None, name, tid,
                    parent[4] if parent else None, parent[5] if parent else None,
                    0.0, 0.0, {}]
            if name in RECORD_SPANS and span[4] is None:
                span[4] = span[0]
            if before is not None:
                before(span, parent, signature.bind(*args, **kwargs).arguments)
            stack = self._stack(tid)
            stack.append(span)
            span[6] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[7] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if after is not None:
                after(span, result)
            return result

        return traced

    # counters, recorded where the work happens

    def _before_core_knn_indices(self, span, parent, a):
        m = a["m"]
        digest = _digest(str(m.shape).encode(), str(m.dtype).encode(), m.tobytes())
        attrs = span[8]
        attrs["rows"] = int(m.shape[0])
        attrs["used"] = parent[8].get("batch_rows", 0) if parent and parent[2] in LOSS_SPANS else 0
        attrs["redundant"] = self._last_bank.get(span[3]) == digest
        self._last_bank[span[3]] = digest

    def _before_neighbors_nrc_loss(self, span, parent, a):
        span[8]["batch_rows"] = len(a["batch_indices"])

    _before_neighbors_aad_loss = _before_neighbors_nrc_loss

    def _before_head_forward(self, span, parent, a):
        span[8]["rows"] = len(a["x"])

    def _before_head_train_supervised(self, span, parent, a):
        model, data = a["model"], a["data"]
        params = b"".join(v.tobytes() for _, v in sorted(model.params().items()))
        norm = model.norm
        stats = b"" if norm.running_mean is None else (
            norm.running_mean.tobytes() + norm.running_var.tobytes())
        labels = b"" if data.labels is None else data.labels.tobytes()
        span[8]["key"] = _digest(a["scope"].encode(), norm.kind.encode(),
                                 model.activation.encode(), params, stats,
                                 repr(a["cfg"]).encode(), data.features.tobytes(), labels)

    def _after_sca_spherical_kmeans(self, span, result):
        span[8]["iters"] = int(len(result[2]))

    def _before_engine_sharded_step(self, span, parent, a):
        span[8]["shards"] = len(a["shards"])
        span[8]["rows"] = sum(len(s) for s in a["shards"])

    def _before_data_load(self, span, parent, a):
        paths = [a["features_path"], a.get("labels_path")]
        span[8]["bytes"] = sum(os.path.getsize(p) for p in paths if p is not None)

    def _adapt_cell(self, span, parent, a):
        dist = a.get("dist")
        if dist is not None:
            span[5] = dist.label

    _before_adapt_SHOT = _before_adapt_NRC = _before_adapt_AAD = _adapt_cell
    _before_adapt_PCSR = _adapt_cell

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in LAYERS; sfuda must be importable."""
    import importlib

    for name, module, attr in LAYERS:
        mod = importlib.import_module(module)
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        original = getattr(owner, fn_name)
        if replace_everywhere(original, tracer.wrap(name, original)) == 0:
            raise RuntimeError(f"{module}.{attr} is referenced nowhere")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans: list[list]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced run, plus per-cell k-NN detail."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[6], s[7]))
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    by_name: dict[str, list[list]] = {}
    for s in spans:
        name = s[2]
        dur = s[7] - s[6]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - _covered(children.get(s[0], []), s[6], s[7])
        by_name.setdefault(name, []).append(s)

    knn = by_name.get("core.knn_indices", [])
    ranked = sum(s[8]["rows"] for s in knn)
    steps = by_name.get("engine.sharded_step", [])
    shards = sum(s[8]["shards"] for s in steps)
    trainings = by_name.get("head.train_supervised", [])

    m: dict[str, float] = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = calls.get(layer, 0)
        elif kind == "self_s":
            m[metric] = self_s.get(layer, 0.0)
    m["core.knn_indices.rows_ranked"] = ranked
    m["core.knn_indices.rows_used_ratio"] = _ratio(sum(s[8]["used"] for s in knn), ranked)
    m["core.knn_indices.redundant_share"] = _ratio(sum(s[8]["redundant"] for s in knn), len(knn))
    m["head.forward.rows"] = sum(s[8]["rows"] for s in by_name.get("head.forward", []))
    m["harness.first_transfer.useful_ratio"] = _ratio(
        len({s[8]["key"] for s in trainings}), len(trainings))
    m["sca.spherical_kmeans.iters"] = sum(s[8]["iters"] for s in by_name.get("sca.spherical_kmeans", []))
    m["engine.shards"] = shards
    m["engine.shard_rows_mean"] = _ratio(sum(s[8]["rows"] for s in steps), shards)
    m["data.load.bytes"] = sum(s[8]["bytes"] for s in by_name.get("data.load", []))

    cells: dict[str, dict] = {}
    for s in knn:
        c = cells.setdefault(s[5] or "-", {"calls": 0, "redundant": 0})
        c["calls"] += 1
        c["redundant"] += s[8]["redundant"]
    detail = {
        "knn_by_cell": {k: {**v, "redundant_share": _ratio(v["redundant"], v["calls"])}
                        for k, v in sorted(cells.items())},
        "records": len({s[4] for s in spans if s[4] is not None}),
        "threads": len({s[3] for s in spans}),
        "spans": len(spans),
    }
    return m, detail
