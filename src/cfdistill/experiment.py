"""End-to-end experiment orchestration.

A JSON manifest (schema_version 1) names the world or dataset paths, the
factorization / feature / architecture / training settings, the regime
list, seeds, and folds.  ``run_experiment`` executes the stages

    world -> als -> features -> estimator -> tasks

persisting every artifact under the output directory.  A stage failure
aborts with the stage name; artifacts written so far stay on disk for
diagnosis.  Identical manifests reproduce identical result files in
deterministic mode.
"""

from __future__ import annotations

import dataclasses
import json
import time
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from . import fileio
from .als import (
    AlsConfig,
    build_interaction_matrix,
    als_fit,
    item_vector,
    parse_log_file,
    save_embedding,
)
from .evaluation import paired_improvement_test, plain_split, stratified_kfold, stratified_split
from .features import FeatureConfig, Waveform, melspectrogram
from .nn.network import PRESETS, layer_shapes, load_checkpoint, save_checkpoint
from .transfer import (
    RegimeConfig,
    TaskData,
    TaskSpec,
    TrainConfig,
    predict_network,
    train_cf_estimator,
    train_task,
)
from .world import World, WorldConfig, generate_world

SCHEMA_VERSION = 1
ALL_STAGES = ("world", "als", "features", "estimator", "tasks")
# The stages whose outputs each stage reads; they must run before it in the
# same call.  tasks reads the estimator from its checkpoint when the
# estimator stage has not run.
STAGE_INPUTS = {
    "world": (),
    "als": ("world",),
    "features": ("world",),
    "estimator": ("als", "features"),
    "tasks": ("features",),
}
# results.csv columns and the type each is read back as
RESULT_COLUMNS = {"task": str, "regime": str, "channels": int, "seed": int, "fold": int,
                  "metric": float, "epochs": int, "seconds": float}
REQUIRED = object()  # a key with no default
# Types and defaults of the keys of the top level ("") and of the sections no
# config class holds.  The task, world, als, features, estimator and
# regimes[*] sections take the fields of their config class (annotations and
# defaults included), plus the keys listed here.  A None default leaves the
# setting to the code that uses it.
SETTINGS = {
    "": {
        "schema_version": (int, REQUIRED), "output_dir": (Optional[str], None),
        "dtype": (str, "float64"), "task": (dict, REQUIRED), "world": (Optional[dict], None),
        "datasets": (Optional[dict], None), "split": (dict, REQUIRED), "als": (dict, {}),
        "features": (dict, {}), "architecture": (dict, REQUIRED), "estimator": (dict, REQUIRED),
        "regimes": (list, REQUIRED), "seeds": (list, REQUIRED), "folds": (int, 1),
    },
    "task": {"name": (Optional[str], None)},  # the task kind
    "datasets": {"logs": (str, REQUIRED), "audio_dir": (str, REQUIRED),
                 "labels": (str, REQUIRED)},
    "split": {"n_estimator_items": (int, REQUIRED), "val_fraction": (float, 0.15),
              "test_fraction": (float, 0.25)},
    "architecture": {"preset": (str, "cf_estimator_desk"), "n_channels": (int, REQUIRED),
                     "include_fifth_block": (Optional[bool], None)},
    "estimator": {"val_fraction": (float, 0.2), "normalize_targets": (bool, False)},
}


class StageError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage, message):
        super().__init__(f"stage={stage}: {message}")
        self.stage = stage


def load_manifest(path):
    """Read and validate a manifest file."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    validate_manifest(manifest)
    return manifest


def _check_type(label, value, kind):
    """Raise a ValueError naming ``label`` unless ``value`` is of ``kind``: int,
    float, bool, str, dict, list or an Optional of one.  An int passes as a
    float; a bool passes only as a bool."""
    optional = typing.get_origin(kind) is typing.Union  # Optional[X]
    if optional:
        if value is None:
            return
        kind = next(k for k in typing.get_args(kind) if k is not type(None))
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
        raise ValueError(
            f"{label} must be {kind.__name__}{' or null' if optional else ''}, "
            f"got {type(value).__name__} {value!r}"
        )


def _check_types(values, kinds, label):
    """``_check_type`` on every value whose key ``kinds`` types; ``label``
    formats a key into the name errors give it."""
    for key, value in values.items():
        if key in kinds:
            _check_type(label.format(key), value, kinds[key])


def _defaults(path):
    return {key: default for key, (_, default) in SETTINGS.get(path, {}).items()}


def _section(values, path, cls=None, required=(), **fixed):
    """The manifest section at ``path`` over its ``SETTINGS`` defaults or, given
    ``cls``, as ``cls(**values, **fixed)`` less those keys; it may set no ``fixed``
    field, and must set every other field of ``cls`` that has no default, and
    the keys in ``required``.  Errors are ValueErrors that name the key path."""
    own = SETTINGS.get(path, {})
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed] if cls else []
    allowed = set(own) | {f.name for f in fields}
    if not isinstance(values, dict):
        raise ValueError(
            f"manifest {path or 'file'} must be a JSON object, got {type(values).__name__}"
        )
    prefix = f"{path}." if path else ""
    unknown = sorted(set(values) - allowed)
    if unknown:
        raise ValueError(f"unknown manifest key '{prefix}{unknown[0]}'")
    needed = [k for k, (_, v) in own.items() if v is REQUIRED] + [
        f.name for f in fields
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ] + list(required)
    missing = [k for k in needed if k not in values]
    if missing:
        raise ValueError(f"manifest is missing '{prefix}{missing[0]}'")
    kinds = {**(typing.get_type_hints(cls) if cls else {}), **{k: t for k, (t, _) in own.items()}}
    _check_types(values, kinds, f"manifest key '{prefix}{{}}'")
    if cls is None:
        return {**_defaults(path), **values}
    try:
        return cls(**{k: v for k, v in values.items() if k not in own}, **fixed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest {path}: {exc}") from None


def validate_manifest(manifest):
    """Parse a manifest into the settings its stages use, keyed as returned.

    Every key, and each range its config class checks, is checked here
    before any stage runs.  Each regime's seed is set per cell from ``seeds``.
    """
    top = _section(manifest, "")
    if top["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema_version must be {SCHEMA_VERSION}, got {top['schema_version']!r}"
        )
    if (top["world"] is None) == (top["datasets"] is None):
        raise ValueError("manifest needs exactly one of 'world' or 'datasets'")
    seeds = top["seeds"]
    for i, seed in enumerate(seeds):
        _check_type(f"manifest key 'seeds[{i}]'", seed, int)
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"manifest seeds must be a non-empty list of distinct ints, got {seeds}")
    if not top["regimes"]:
        raise ValueError("manifest must list at least one regime")
    if top["folds"] < 1:
        raise ValueError(f"manifest folds must be a positive int, got {top['folds']!r}")
    classes = isinstance(top["task"], dict) and top["task"].get("kind") == "classification"
    task = _section(top["task"], "task", TaskSpec, required=("n_classes",) if classes else ())
    world = None if top["world"] is None else _section(top["world"], "world", WorldConfig)
    if world is not None and world.task_kind != task.kind:
        raise ValueError(
            f"manifest world.task_kind {world.task_kind!r} != task.kind {task.kind!r}"
        )
    arch = _section(top["architecture"], "architecture")
    if arch["preset"] not in PRESETS:
        raise ValueError(f"unknown architecture preset {arch['preset']!r}")
    fifth = arch["include_fifth_block"]
    try:
        specs, input_shape = PRESETS[arch["preset"]](
            arch["n_channels"], **({} if fifth is None else {"include_fifth_block": fifth})
        )
        layer_shapes(specs, input_shape)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest architecture: {exc}") from None
    dtype = top["dtype"]
    if dtype not in ("float32", "float64"):
        raise ValueError(f"manifest key 'dtype' must be 'float32' or 'float64', got {dtype!r}")
    train = _section(top["estimator"], "estimator", TrainConfig, dtype=dtype)
    estimator = {**_defaults("estimator"), **top["estimator"]}
    return {
        "task": task, "task_name": top["task"].get("name") or task.kind,
        "world": world, "datasets": None if world else _section(top["datasets"], "datasets"),
        "als": _section(top["als"], "als", AlsConfig),
        "features": _section(top["features"], "features", FeatureConfig),
        "preset": arch["preset"], "n_channels": arch["n_channels"],
        "specs": specs, "input_shape": input_shape,
        "train": train, "estimator_val_fraction": estimator["val_fraction"],
        "normalize_targets": estimator["normalize_targets"],
        "split": _section(top["split"], "split"),
        "regimes": [
            _section(r, f"regimes[{i}]", RegimeConfig, seed=0, dtype=dtype)
            for i, r in enumerate(top["regimes"])
        ],
        "seeds": top["seeds"], "folds": top["folds"],
    }


def make_config(cls, values, section):
    """``cls(**values)``, rejecting keys that are not fields of ``cls`` and
    values that do not match the field's annotation."""
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} key {unknown[0]!r}")
    _check_types(values, typing.get_type_hints(cls), f"{section} key '{{}}'")
    return cls(**values)


# Rows of logs.tsv formatted per write; bounds the Python objects alive at once.
LOG_BLOCK = 65536


def write_audio(audio_dir, item_id, wave: Waveform):
    """Write one item's waveform as ``<audio_dir>/<item_id>.f32`` plus its sidecar."""
    fileio.write_raw_float32(Path(audio_dir) / f"{item_id}.f32", wave.samples, wave.sample_rate)


def write_world(world: World, out_dir, audio=True):
    """Persist a generated world: logs, labels, true latents and (unless
    ``audio`` is false) each item's audio, one waveform at a time."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logs = world.interactions
    with fileio.atomic_write(out_dir / "logs.tsv", "w") as fh:
        for start in range(0, len(logs), LOG_BLOCK):
            block = slice(start, start + LOG_BLOCK)
            fh.writelines(
                f"{logs.user_ids[u]}\t{logs.item_ids[i]}\t{c}\n"
                for u, i, c in zip(
                    logs.users[block].tolist(), logs.items[block].tolist(),
                    logs.counts[block].tolist(),
                )
            )
    with fileio.atomic_write(out_dir / "labels.csv", "w") as fh:
        fh.write("item_id,label\n")
        for item_id, label in zip(world.item_ids, world.labels):
            if world.config.task_kind == "classification":
                fh.write(f"{item_id},{int(label)}\n")
            else:
                fh.write(f"{item_id},{float(label)!r}\n")
    fileio.save_float_table(
        out_dir / "latents.ftab", world.item_ids, world.item_latents, meta={"kind": "true_latents"}
    )
    if audio:
        for item_id, wave in zip(world.item_ids, world.waveforms):
            write_audio(out_dir / "audio", item_id, wave)


def _load_labels_csv(path, kind):
    """``{item_id: label}``; a malformed line, or one that is not UTF-8, raises
    ``ValueError`` naming ``path:lineno``."""
    parse, kind_name = (int, "an integer") if kind == "classification" else (float, "a number")
    labels = {}
    lines = fileio.text_lines(path)
    if next(lines, (1, ""))[1].strip() != "item_id,label":
        raise ValueError(f"{path}: expected header 'item_id,label'")
    for lineno, line in lines:
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(fields)}")
        item_id, value = fields
        if item_id in labels:
            raise ValueError(f"{path}:{lineno}: duplicate item id {item_id!r}")
        try:
            labels[item_id] = parse(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: label {value!r} is not {kind_name}") from None
    return labels


def _stage_world(ctx):
    if ctx["world"] is not None:
        world = generate_world(ctx["world"])
        write_world(world, ctx["out_dir"] / "world", audio=False)  # see _stage_features
        ctx["logs"] = world.interactions
        ctx["item_ids"] = world.item_ids
        ctx["waveforms"] = world.waveforms
        ctx["labels"] = np.asarray(world.labels)
    else:
        paths = ctx["datasets"]
        for path in paths.values():
            if not Path(path).exists():
                raise ValueError(f"dataset path does not exist: {path}")
        ctx["logs"] = parse_log_file(paths["logs"])
        ctx["item_ids"], ctx["waveforms"] = read_audio_dir(
            paths["audio_dir"], ctx["features"].sample_rate
        )
        label_map = _load_labels_csv(paths["labels"], ctx["task"].kind)
        missing = [i for i in ctx["item_ids"] if i not in label_map]
        if missing:
            raise ValueError(f"labels file is missing {len(missing)} item ids, e.g. {missing[0]!r}")
        ctx["labels"] = np.asarray([label_map[i] for i in ctx["item_ids"]])


def read_audio_dir(audio_dir, sample_rate):
    """Item ids (file stems) and waveforms of the audio files in a directory."""
    files = fileio.list_audio_files(audio_dir)
    waveforms = [Waveform(*fileio.read_audio(f, expect_rate=sample_rate)) for f in files]
    return [f.stem for f in files], waveforms


def fit_embedding(logs, config: AlsConfig, path):
    """Factorize listening logs, save the item table; returns (matrix, embedding)."""
    matrix = build_interaction_matrix(logs)
    embedding = als_fit(matrix, config)
    save_embedding(embedding, path, meta={"alpha": config.alpha, "reg_lambda": config.reg_lambda})
    return matrix, embedding


def write_features(item_ids, waveforms, config: FeatureConfig, out_dir, audio_dir=None):
    """Save each mel grid as ``<out_dir>/<item_id>.ftab``; returns {item_id: grid}.

    One pass over ``waveforms``, which may synthesize each item as it is
    read; given ``audio_dir``, each waveform is also written there (see
    ``write_audio``).  No waveform is kept once its grid is written.
    """
    grids = {}
    for item_id, wave in zip(item_ids, waveforms):
        mel = melspectrogram(wave, config)
        if audio_dir is not None:
            write_audio(audio_dir, item_id, wave)
        fileio.save_float_table(
            Path(out_dir) / f"{item_id}.ftab",
            [f"mel_{i:03d}" for i in range(mel.n_mels)],
            mel.grid,
            meta={"item_id": item_id, "n_frames": mel.n_frames},
        )
        grids[item_id] = mel.grid
    return grids


def _stage_als(ctx):
    path = ctx["out_dir"] / "embeddings" / "item_embeddings.ftab"
    _, ctx["embedding"] = fit_embedding(ctx["logs"], ctx["als"], path)


def _stage_features(ctx):
    # A generated world's audio is synthesized and written here, in one pass
    # with the grids, so only one batch of it is ever in memory.
    audio_dir = ctx["out_dir"] / "world" / "audio" if ctx["world"] is not None else None
    grids = write_features(
        ctx["item_ids"], ctx.pop("waveforms"), ctx["features"], ctx["out_dir"] / "features",
        audio_dir=audio_dir,
    )
    shapes = {g.shape for g in grids.values()}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent mel grid shapes: {sorted(shapes)}")
    ctx["grids"] = grids
    ctx["grid_shape"] = next(iter(shapes))


def _features_array(ctx, item_ids):
    grids = ctx["grids"]
    return np.stack([grids[i][:, :, None] for i in item_ids], axis=0)


def _split_counts(ctx):
    n_items = len(ctx["item_ids"])
    n_est = ctx["split"]["n_estimator_items"]
    if not (0 < n_est < n_items):
        raise ValueError(f"n_estimator_items={n_est} must be in (0, {n_items})")
    return n_est


def _stage_estimator(ctx):
    input_shape = ctx["input_shape"]
    if ctx["grid_shape"] != tuple(input_shape[:2]):
        raise ValueError(
            f"mel grids {ctx['grid_shape']} do not match architecture input "
            f"{tuple(input_shape[:2])}"
        )
    config = ctx["train"]
    n_est = _split_counts(ctx)
    est_ids = ctx["item_ids"][:n_est]
    embedding = ctx["embedding"]
    targets = np.stack([item_vector(embedding, i) for i in est_ids], axis=0)
    if ctx["normalize_targets"]:
        norms = np.linalg.norm(targets, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("cannot normalize zero embedding targets")
        targets = targets / norms
    features = _features_array(ctx, est_ids)
    train_idx, val_idx = plain_split(n_est, (ctx["estimator_val_fraction"],), seed=[config.seed, 3])
    model, info = train_cf_estimator(
        features, targets, ctx["specs"], input_shape, config, train_idx, val_idx
    )
    save_checkpoint(
        model, ctx["out_dir"] / "checkpoints" / "cf_estimator.npz", extra={"preset": ctx["preset"]}
    )
    _write_csv(
        ctx["out_dir"] / "curves" / "estimator.csv",
        "epoch,train_loss,val_loss",
        (row.values() for row in info["curve"]),
    )
    ctx["estimator"] = model


def _make_splits(task: TaskSpec, labels, folds, seed, val_fraction, test_fraction):
    """Per-seed (train, val, test, fold_index) splits over the task items."""
    n = len(labels)
    if folds == 1:
        if task.kind == "classification":
            train, val, test = stratified_split(labels, (val_fraction, test_fraction), seed=seed)
        else:
            train, val, test = plain_split(n, (val_fraction, test_fraction), seed=seed)
        return [(train, val, test, 0)]
    out = []
    if task.kind == "classification":
        for f, (trainval, test) in enumerate(stratified_kfold(labels, k=folds, seed=seed)):
            sub_train, sub_val = stratified_split(labels[trainval], (val_fraction,), seed=[seed, f])
            out.append((trainval[sub_train], trainval[sub_val], test, f))
    else:
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        chunks = np.array_split(order, folds)
        for f in range(folds):
            test = np.sort(chunks[f])
            trainval = np.sort(np.concatenate([chunks[g] for g in range(folds) if g != f]))
            sub_train, sub_val = plain_split(trainval.size, (val_fraction,), seed=[seed, f])
            out.append((trainval[sub_train], trainval[sub_val], test, f))
    return out


def _stage_tasks(ctx):
    task, specs, input_shape = ctx["task"], ctx["specs"], ctx["input_shape"]
    estimator = ctx.get("estimator")
    ckpt = ctx["out_dir"] / "checkpoints" / "cf_estimator.npz"
    if estimator is None and any(r.regime != "base" for r in ctx["regimes"]):
        if not ckpt.exists():
            raise ValueError("estimator checkpoint missing; run train-estimator first")
        estimator = load_checkpoint(ckpt, expect_specs=specs, expect_input_shape=input_shape)
        ctx["estimator"] = estimator

    n_est = _split_counts(ctx)
    task_ids = ctx["item_ids"][n_est:]
    labels = ctx["labels"][n_est:]
    features = _features_array(ctx, task_ids)
    # The estimator's outputs over the task items, computed once for every fix and kd cell.
    uses_teacher = any(r.regime in ("fix", "kd") for r in ctx["regimes"])
    teacher = predict_network(estimator, features) if uses_teacher else None
    split, task_name, n_channels = ctx["split"], ctx["task_name"], ctx["n_channels"]
    out_dir = ctx["out_dir"]

    results = []
    fold_records = []
    for seed in ctx["seeds"]:
        splits = _make_splits(
            task, labels, ctx["folds"], [seed, 17], split["val_fraction"], split["test_fraction"]
        )
        for train_idx, val_idx, test_idx, fold in splits:
            fold_records.append(
                {
                    "seed": int(seed),
                    "fold": int(fold),
                    "train": train_idx.tolist(),
                    "val": val_idx.tolist(),
                    "test": test_idx.tolist(),
                }
            )
            data = TaskData(
                features=features,
                targets=labels,
                train_idx=train_idx,
                val_idx=val_idx,
                test_idx=test_idx,
            )
            for regime in ctx["regimes"]:
                regime = dataclasses.replace(regime, seed=seed)
                start = time.perf_counter()
                model, result = train_task(
                    task,
                    data,
                    specs,
                    input_shape,
                    n_channels,
                    regime,
                    cf_estimator=estimator,
                    fold=fold,
                    teacher=teacher,
                )
                result.seconds = 0.0 if ctx["deterministic"] else time.perf_counter() - start
                cell = f"{task_name}_{regime.regime}_F{n_channels}_s{seed}_f{fold}"
                _write_csv(
                    out_dir / "curves" / f"{cell}.csv",
                    "epoch,train_total,train_task,train_kd,val_task",
                    (row.values() for row in result.curve),
                )
                save_checkpoint(
                    model,
                    out_dir / "checkpoints" / f"task_{cell}.npz",
                    extra={"regime": regime.regime, "cell": cell},
                )
                results.append((task_name, result))

    with fileio.atomic_write(out_dir / "folds.json", "w") as fh:
        json.dump({"task_items": task_ids, "cells": fold_records}, fh, indent=2)
        fh.write("\n")
    write_results_csv(out_dir / "results.csv", results)
    ctx["results"] = [r for _, r in results]


def _write_csv(path, header, rows):
    """A header line, then one comma-joined line per row; floats get 8 decimals.
    Written atomically (see ``fileio.atomic_write``)."""
    with fileio.atomic_write(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.8f}" if isinstance(v, float) else str(v) for v in row) + "\n")


def write_results_csv(path, results):
    """One row per (task, regime, channels, seed, fold) cell."""
    _write_csv(
        path,
        ",".join(RESULT_COLUMNS),
        (
            [task_name, r.regime, r.n_channels, r.seed, r.fold,
             f"{r.metric_value:.6f}", r.epochs_run, f"{r.seconds:.3f}"]
            for task_name, r in results
        ),
    )


def run_experiment(manifest, out_dir, deterministic=False, stages=ALL_STAGES):
    """Execute the pipeline; returns the ExperimentResult list.

    Any stage failure raises :class:`StageError` naming the stage;
    artifacts written before the failure remain on disk.  An unknown stage,
    or one listed without a stage it reads from before it, is a ValueError
    raised before anything runs.
    """
    stages = tuple(stages)
    check_stages(stages)
    settings = validate_manifest(manifest)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with fileio.atomic_write(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ctx = {**settings, "out_dir": out_dir, "deterministic": deterministic}
    stage_fns = {
        "world": _stage_world,
        "als": _stage_als,
        "features": _stage_features,
        "estimator": _stage_estimator,
        "tasks": _stage_tasks,
    }
    for name in stages:
        try:
            stage_fns[name](ctx)
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
    return ctx.get("results", [])


def check_stages(stages):
    """Raise ValueError naming the first stage that is unknown or that comes
    without a stage whose outputs it reads (:data:`STAGE_INPUTS`) before it."""
    for i, name in enumerate(stages):
        if name not in STAGE_INPUTS:
            raise ValueError(f"unknown stage {name!r}; expected one of {ALL_STAGES}")
        missing = [need for need in STAGE_INPUTS[name] if need not in stages[:i]]
        if missing:
            raise ValueError(f"stage {name!r} needs stage {missing[0]!r} to run before it")


def read_results_csv(path):
    """Parse a results.csv into a list of row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header != list(RESULT_COLUMNS):
            raise ValueError(f"{path}: unexpected results header {header}")
        for line in fh:
            if line.strip():
                values = zip(RESULT_COLUMNS.items(), line.strip().split(","), strict=True)
                rows.append({name: kind(value) for (name, kind), value in values})
    if not rows:
        raise ValueError(f"{path}: no result rows")
    return rows


def summarize_results(rows):
    """Per-regime means plus paired t-tests of every regime against base.

    Pairing is on (task, channels, seed, fold) cells.  Returns a dict with
    'means' and 'tests'; the test entry is None when pairing or variance
    preconditions fail (e.g. a single pair or zero-variance differences).
    """
    by_regime = {}
    for row in rows:
        by_regime.setdefault(row["regime"], {})[
            (row["task"], row["channels"], row["seed"], row["fold"])
        ] = row["metric"]
    means = {reg: float(np.mean(list(cells.values()))) for reg, cells in by_regime.items()}
    tests = {}
    if "base" in by_regime:
        base_cells = by_regime["base"]
        for reg, cells in by_regime.items():
            if reg == "base":
                continue
            shared = sorted(set(cells) & set(base_cells))
            if len(shared) < 2:
                tests[reg] = None
                continue
            a = [cells[c] for c in shared]
            b = [base_cells[c] for c in shared]
            try:
                mean_diff, t_stat, p_val = paired_improvement_test(a, b)
                tests[reg] = {"mean_diff": mean_diff, "t": t_stat, "p": p_val, "n": len(shared)}
            except ValueError:
                tests[reg] = None
    return {"means": means, "tests": tests}
