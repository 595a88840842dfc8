"""Spans around the public functions of each cfdistill module.

The tracer is installed from the benchmark's own files: it replaces each
traced function, in every loaded ``cfdistill`` module that refers to it,
with a wrapper that records one span (name, start, end, parent) in memory.
Layer and network methods are wrapped on their classes.  Nothing in
``src/`` is edited, and nothing is wrapped unless the run is traced.

Self time of a span is its duration minus the durations of its child
spans.  Every traced function charges its self time to exactly one
bucket metric (``SELF_METRICS``), so the buckets add up to the wall time
of the iteration span that encloses them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

MB = float(2**20)
ROOT_SPAN = "bench.iteration"
RUN_SPAN = "experiment.run_experiment"
STAGES = ("world", "als", "features", "estimator", "tasks")
REGIMES = ("base", "fix", "init", "kd")
LAYER_CLASSES = {
    "Conv2d": "conv2d",
    "BatchNorm": "batch_norm",
    "ReLU": "relu",
    "MaxPool": "max_pool",
    "SEBlock": "se_block",
    "GlobalAvgPool": "global_avg_pool",
    "FullyConnected": "fully_connected",
}
KINDS = tuple(LAYER_CLASSES.values())

# (module, function, self-time bucket).  A span is named "<module>.<function>".
FUNCTIONS = (
    ("world", "generate_world", "world.generate_s"),
    ("experiment", "write_world", "world.write_s"),
    ("als", "parse_log_file", "als.matrix_s"),
    ("als", "build_interaction_matrix", "als.matrix_s"),
    ("als", "als_fit", "als.fit_s"),
    ("als", "als_solve_side", "als.fit_s"),
    ("als", "save_embedding", "fileio.write_s"),
    ("features", "melspectrogram", "features.mel_s"),
    ("fileio", "save_float_table", "fileio.write_s"),
    ("fileio", "write_raw_float32", "fileio.write_s"),
    ("fileio", "write_wav", "fileio.write_s"),
    ("fileio", "content_hash", "fileio.hash_s"),
    ("experiment", "write_results_csv", "fileio.write_s"),
    ("nn.adam", "adam_step", "nn.adam.step_s"),
    ("nn.losses", "mse_loss", "nn.losses_s"),
    ("nn.losses", "cosine_proximity_loss", "nn.losses_s"),
    ("nn.losses", "softmax_cross_entropy", "nn.losses_s"),
    ("transfer", "distillation_loss", "nn.losses_s"),
    ("nn.network", "save_checkpoint", "nn.checkpoint_s"),
    ("nn.network", "load_checkpoint", "nn.checkpoint_s"),
    ("transfer", "train_cf_estimator", "transfer.self_s"),
    ("transfer", "train_task", "transfer.self_s"),
    ("transfer", "predict_network", "transfer.self_s"),
    ("experiment", "run_experiment", "experiment.self_s"),
)
# The first call of each of these inside run_experiment opens a stage; the
# other calls run_experiment makes directly are charged to the open stage.
STAGE_MARKERS = {
    "world.generate_world": "world",
    "als.parse_log_file": "world",
    "als.build_interaction_matrix": "als",
    "features.melspectrogram": "features",
    "transfer.train_cf_estimator": "estimator",
    "transfer.train_task": "tasks",
}

BUCKETS = {f"{mod}.{fn}": bucket for mod, fn, bucket in FUNCTIONS}
BUCKETS.update({f"nn.{k}.{d}": f"nn.{k}.{d}_s" for k in KINDS for d in ("fwd", "bwd")})
BUCKETS.update({
    "nn.network.forward": "nn.network.forward_s",
    "nn.network.backward": "nn.network.backward_s",
    ROOT_SPAN: "bench.self_s",
})
SELF_METRICS = tuple(dict.fromkeys(BUCKETS.values()))

# Metric names and units live in BENCHMARK.json only.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])


def current_rss_mb():
    """Resident set size of this process now (Linux /proc)."""
    with open("/proc/self/statm", "rb") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / MB


def _held_bytes(obj, seen):
    """Bytes of the distinct arrays (counted by their base) inside a cache."""
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if id(base) in seen:
            return 0
        seen.add(id(base))
        return base.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_held_bytes(o, seen) for o in obj)
    if isinstance(obj, dict):
        return sum(_held_bytes(o, seen) for o in obj.values())
    return 0


def _args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _written(fn, args, kwargs, result):
    path = str(_args(fn, args, kwargs)["path"])
    return {"bytes": sum(os.path.getsize(p) for p in (path, path + ".json") if os.path.isfile(p))}


def _solved_rows(fn, args, kwargs, result):
    # Rows with no interactions are skipped and stay the zero vector.
    return {"rows": int(np.count_nonzero(np.any(result != 0.0, axis=1)))}


def _predicted_rows(fn, args, kwargs, result):
    return {"rows": int(np.shape(result)[0])}


def _estimator_epochs(fn, args, kwargs, result):
    return {"epochs": int(result[1]["epochs_run"])}


def _task_cell(fn, args, kwargs, result):
    return {"regime": result[1].regime, "epochs": int(result[1].epochs_run)}


def _train_step(fn, args, kwargs, result):
    if not _args(fn, args, kwargs)["train"]:
        return None
    caches = result[1]
    held = _held_bytes(caches, set()) if caches is not None else 0
    return {"train": int(np.shape(args[1])[0]), "cache_bytes": held}


EXTRAS = {
    "fileio.save_float_table": _written,
    "fileio.write_raw_float32": _written,
    "fileio.write_wav": _written,
    "experiment.write_results_csv": _written,
    "als.als_solve_side": _solved_rows,
    "transfer.predict_network": _predicted_rows,
    "transfer.train_cf_estimator": _estimator_epochs,
    "transfer.train_task": _task_cell,
    "nn.network.forward": _train_step,
}


class Tracer:
    """In-memory span recorder; spans are ``[name, start_ns, end_ns, parent, fields]``."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def _open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0, 0, parent, {}])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span, start):
        span[1], span[2] = start, time.perf_counter_ns()
        self.stack.pop()
        if span[3] >= 0 and self.spans[span[3]][0] == RUN_SPAN:
            span[4]["rss_mb"] = current_rss_mb()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        span = self._open(name)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(span, start)

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, start)
            if extra is not None:
                span[4].update(extra(fn, args, kwargs, result) or {})
            return result

        return traced

    def install(self):
        """Wrap every traced function and method that this cfdistill has."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("cfdistill")]
        for mod_name, fn_name, _ in FUNCTIONS:
            home = importlib.import_module(f"cfdistill.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapped = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        layers = importlib.import_module("cfdistill.nn.layers")
        for cls_name, kind in LAYER_CLASSES.items():
            cls = getattr(layers, cls_name, None)
            if cls is not None:
                cls.forward = self.wrap(f"nn.{kind}.fwd", cls.forward)
                cls.backward = self.wrap(f"nn.{kind}.bwd", cls.backward)
        model = importlib.import_module("cfdistill.nn.network").NetworkModel
        model.forward = self.wrap("nn.network.forward", model.forward)
        model.backward = self.wrap("nn.network.backward", model.backward)

    def dump(self, path):
        """Write the spans, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, fields) in enumerate(self.spans):
                record = {"id": i, "name": name, "start_ns": start, "end_ns": end, "parent": parent}
                fh.write(json.dumps({**record, **fields}) + "\n")


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass.

    Totals and counts are means over the pass's iterations (so self-time
    buckets add up to the mean iteration wall time); per-call times are
    medians over every call in the pass.
    """
    dur = [(end - start) / 1e9 for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    roots = []
    root_of = [-1] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            root_of[i] = root_of[parent]
        elif name == ROOT_SPAN:
            root_of[i] = i
            roots.append(i)
    n_iter = max(len(roots), 1)
    total = dict.fromkeys(PER_LAYER, 0.0)
    per_call = {}
    cache_bytes = []
    stage_of_run = {}
    rss = {s: [] for s in STAGES}
    est_epochs, cells = [], {r: [] for r in REGIMES}
    solve_s = mel_s = 0.0
    for i, (name, _, _, parent, fields) in enumerate(spans):
        if root_of[i] < 0:
            continue
        total[BUCKETS[name]] += dur[i] - child[i]
        if name.startswith("nn.") and name.endswith((".fwd", ".bwd")):
            kind, direction = name[3:].rsplit(".", 1)
            total[f"nn.{kind}.calls"] += 1
            per_call.setdefault(f"nn.{kind}.{direction}_ms", []).append(dur[i] * 1e3)
            if direction == "bwd":
                total["nn.bwd_calls"] += 1
        elif name == "nn.network.forward" and "train" in fields:
            total["transfer.train_samples"] += fields["train"]
            cache_bytes.append(fields["cache_bytes"])
        elif name.startswith("fileio."):
            total["fileio.calls"] += 1
        if "bytes" in fields:
            total["fileio.write_mb"] += fields["bytes"] / MB
        if name == "als.als_solve_side":
            total["als.row_solves"] += fields["rows"]
            solve_s += dur[i]
        elif name == "features.melspectrogram":
            total["features.grids"] += 1
            mel_s += dur[i]
        elif name == "transfer.predict_network":
            total["transfer.predict_s"] += dur[i]
            total["transfer.predict_items"] += fields["rows"]
        elif name == "transfer.train_cf_estimator":
            est_epochs.append(dur[i] / max(fields["epochs"], 1))
        elif name == "transfer.train_task":
            cells[fields["regime"]].append((dur[i], dur[i] / max(fields["epochs"], 1)))
        if parent >= 0 and spans[parent][0] == RUN_SPAN:
            stage = STAGE_MARKERS.get(name) or stage_of_run.get(parent, "world")
            stage_of_run[parent] = stage
            total[f"experiment.{stage}_s"] += dur[i]
            rss[stage].append(fields["rss_mb"])
    out = {k: v / n_iter for k, v in total.items()}
    for key, values in per_call.items():
        out[key] = _median(values)
    out["nn.train_cache_mb"] = _median(cache_bytes) / MB
    out["als.rows_per_s"] = total["als.row_solves"] / solve_s if solve_s else 0.0
    out["features.grids_per_s"] = total["features.grids"] / mel_s if mel_s else 0.0
    out["transfer.estimator.epoch_s"] = _median(est_epochs)
    for regime, values in cells.items():
        out[f"transfer.{regime}.cell_s"] = _median([c for c, _ in values])
        out[f"transfer.{regime}.epoch_s"] = _median([e for _, e in values])
    for stage, values in rss.items():
        out[f"experiment.{stage}.rss_mb"] = max(values) if values else 0.0
    out["trace.wall_s"] = sum(dur[i] for i in roots) / n_iter
    out["trace.self_sum_s"] = sum(out[k] for k in SELF_METRICS)
    return out
