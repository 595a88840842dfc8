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
from pathlib import Path

import numpy as np

from . import fileio
from .als import (
    AlsConfig,
    build_interaction_matrix,
    als_fit,
    item_vector,
    load_embedding,
    parse_log_file,
    save_embedding,
)
from .evaluation import plain_split, stratified_kfold, stratified_split
from .features import FeatureConfig, Waveform, melspectrogram
from .nn.network import PRESETS, load_checkpoint, save_checkpoint
from .transfer import (
    RegimeConfig,
    TaskData,
    TaskSpec,
    TrainConfig,
    train_cf_estimator,
    train_task,
)
from .world import World, WorldConfig, generate_world

SCHEMA_VERSION = 1
ALL_STAGES = ("world", "als", "features", "estimator", "tasks")
# The keys each required section takes; world, datasets, als, features and
# regimes are checked when their stage reads them.
SECTION_KEYS = {
    "task": {f.name for f in dataclasses.fields(TaskSpec)} | {"name"},
    "architecture": {"preset", "n_channels", "include_fifth_block"},
    "estimator": ({f.name for f in dataclasses.fields(TrainConfig)} - {"dtype"})
    | {"val_fraction", "normalize_targets"},
    "split": {"n_estimator_items", "val_fraction", "test_fraction"},
}
MANIFEST_KEYS = {
    "schema_version", "output_dir", "dtype", "world", "datasets", "als", "features",
    "regimes", "seeds", "folds", *SECTION_KEYS,
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


def validate_manifest(manifest):
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    unknown = sorted(set(manifest) - MANIFEST_KEYS)
    if unknown:
        raise ValueError(f"unknown manifest key {unknown[0]!r}")
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema_version must be {SCHEMA_VERSION}, "
            f"got {manifest.get('schema_version')!r}"
        )
    if ("world" in manifest) == ("datasets" in manifest):
        raise ValueError("manifest needs exactly one of 'world' or 'datasets'")
    if not manifest.get("seeds"):
        raise ValueError("manifest must list at least one seed")
    if not manifest.get("regimes"):
        raise ValueError("manifest must list at least one regime")
    for key, allowed in SECTION_KEYS.items():
        if key not in manifest:
            raise ValueError(f"manifest is missing the {key!r} section")
        if not isinstance(manifest[key], dict):
            raise ValueError(f"manifest {key!r} section must be a JSON object")
        unknown = sorted(set(manifest[key]) - allowed)
        if unknown:
            raise ValueError(f"unknown manifest key '{key}.{unknown[0]}'")
    _estimator_settings(manifest)


def _estimator_settings(manifest):
    """(TrainConfig, val_fraction, normalize_targets) from the estimator section.

    The section holds the TrainConfig fields except dtype, which is
    manifest-wide, plus two settings of the estimator stage itself.
    """
    est = dict(manifest["estimator"])
    val_fraction = est.pop("val_fraction", 0.2)
    normalize = est.pop("normalize_targets", False)
    config = TrainConfig(**est, dtype=manifest.get("dtype", "float64"))
    return config, val_fraction, normalize


def make_config(cls, values, section):
    """``cls(**values)``, rejecting keys that are not fields of ``cls``."""
    unknown = sorted(set(values) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ValueError(f"unknown {section} key {unknown[0]!r}")
    return cls(**values)


def _task_spec(manifest) -> TaskSpec:
    t = manifest["task"]
    return TaskSpec(
        kind=t["kind"],
        n_classes=t.get("n_classes"),
        target_dim=t.get("target_dim"),
        metric=t.get("metric", "accuracy" if t["kind"] == "classification" else "r_squared"),
    )


def _arch(manifest):
    a = manifest["architecture"]
    name = a.get("preset", "cf_estimator_desk")
    if name not in PRESETS:
        raise ValueError(f"unknown architecture preset {name!r}")
    kwargs = {}
    if "include_fifth_block" in a:
        kwargs["include_fifth_block"] = a["include_fifth_block"]
    specs, input_shape = PRESETS[name](a["n_channels"], **kwargs)
    return specs, input_shape, a["n_channels"]


def write_world(world: World, out_dir):
    """Persist a generated world: logs, audio, labels, true latents."""
    out_dir = Path(out_dir)
    (out_dir / "audio").mkdir(parents=True, exist_ok=True)
    with open(out_dir / "logs.tsv", "w", encoding="utf-8") as fh:
        for log in world.logs:
            fh.write(f"{log.user_id}\t{log.item_id}\t{log.count}\n")
    for item_id, wave in zip(world.item_ids, world.waveforms):
        fileio.write_raw_float32(out_dir / "audio" / f"{item_id}.f32", wave.samples, wave.sample_rate)
    with open(out_dir / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write("item_id,label\n")
        for item_id, label in zip(world.item_ids, world.labels):
            if world.config.task_kind == "classification":
                fh.write(f"{item_id},{int(label)}\n")
            else:
                fh.write(f"{item_id},{float(label):.10g}\n")
    fileio.save_float_table(
        out_dir / "latents.ftab", world.item_ids, world.item_latents, meta={"kind": "true_latents"}
    )


def _load_labels_csv(path, kind):
    labels = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "item_id,label":
            raise ValueError(f"{path}: expected header 'item_id,label'")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            item_id, value = line.split(",")
            if item_id in labels:
                raise ValueError(f"{path}: duplicate item id {item_id!r}")
            labels[item_id] = int(value) if kind == "classification" else float(value)
    return labels


def _stage_world(ctx):
    manifest = ctx["manifest"]
    task = ctx["task"]
    if "world" in manifest:
        config = make_config(WorldConfig, manifest["world"], "world")
        if config.task_kind != task.kind:
            raise ValueError(
                f"world task_kind {config.task_kind!r} != manifest task kind {task.kind!r}"
            )
        world = generate_world(config)
        write_world(world, ctx["out_dir"] / "world")
        ctx["logs"] = world.logs
        ctx["item_ids"] = world.item_ids
        ctx["waveforms"] = world.waveforms
        ctx["labels"] = np.asarray(world.labels)
    else:
        paths = manifest["datasets"]
        for key in ("logs", "audio_dir", "labels"):
            if key not in paths:
                raise ValueError(f"datasets section is missing {key!r}")
            if not Path(paths[key]).exists():
                raise ValueError(f"dataset path does not exist: {paths[key]}")
        ctx["logs"] = parse_log_file(paths["logs"])
        rate = manifest.get("features", {}).get("sample_rate", 16000)
        ctx["item_ids"], ctx["waveforms"] = read_audio_dir(paths["audio_dir"], rate)
        label_map = _load_labels_csv(paths["labels"], task.kind)
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


def write_features(item_ids, waveforms, config: FeatureConfig, out_dir):
    """Save each mel grid as ``<out_dir>/<item_id>.ftab``; returns {item_id: grid}."""
    grids = {}
    for item_id, wave in zip(item_ids, waveforms):
        mel = melspectrogram(wave, config)
        fileio.save_float_table(
            Path(out_dir) / f"{item_id}.ftab",
            [f"mel_{i:03d}" for i in range(mel.n_mels)],
            mel.grid,
            meta={"item_id": item_id, "n_frames": mel.n_frames},
        )
        grids[item_id] = mel.grid
    return grids


def _stage_als(ctx):
    config = make_config(AlsConfig, ctx["manifest"].get("als", {}), "als")
    path = ctx["out_dir"] / "embeddings" / "item_embeddings.ftab"
    _, ctx["embedding"] = fit_embedding(ctx["logs"], config, path)


def _stage_features(ctx):
    config = make_config(FeatureConfig, ctx["manifest"].get("features", {}), "features")
    grids = write_features(ctx["item_ids"], ctx["waveforms"], config, ctx["out_dir"] / "features")
    shapes = {g.shape for g in grids.values()}
    if len(shapes) != 1:
        raise ValueError(f"inconsistent mel grid shapes: {sorted(shapes)}")
    ctx["grids"] = grids
    ctx["grid_shape"] = next(iter(shapes))


def _features_array(ctx, item_ids):
    grids = ctx["grids"]
    return np.stack([grids[i][:, :, None] for i in item_ids], axis=0)


def _split_counts(ctx):
    split = ctx["manifest"]["split"]
    n_items = len(ctx["item_ids"])
    n_est = split["n_estimator_items"]
    if not (0 < n_est < n_items):
        raise ValueError(f"n_estimator_items={n_est} must be in (0, {n_items})")
    return n_est


def _stage_estimator(ctx):
    manifest = ctx["manifest"]
    specs, input_shape, _ = _arch(manifest)
    if ctx["grid_shape"] != tuple(input_shape[:2]):
        raise ValueError(
            f"mel grids {ctx['grid_shape']} do not match architecture input "
            f"{tuple(input_shape[:2])}"
        )
    config, val_fraction, normalize = _estimator_settings(manifest)
    n_est = _split_counts(ctx)
    est_ids = ctx["item_ids"][:n_est]
    embedding = ctx.get("embedding")
    if embedding is None:
        embedding = load_embedding(ctx["out_dir"] / "embeddings" / "item_embeddings.ftab")
        ctx["embedding"] = embedding
    targets = np.stack([item_vector(embedding, i) for i in est_ids], axis=0)
    if normalize:
        norms = np.linalg.norm(targets, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("cannot normalize zero embedding targets")
        targets = targets / norms
    features = _features_array(ctx, est_ids)
    train_idx, val_idx = plain_split(len(est_ids), (val_fraction,), seed=[config.seed, 3])
    model, info = train_cf_estimator(
        features, targets, specs, input_shape, config, train_idx, val_idx
    )
    save_checkpoint(
        model,
        ctx["out_dir"] / "checkpoints" / "cf_estimator.npz",
        extra={"preset": manifest["architecture"].get("preset", "cf_estimator_desk")},
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
    manifest = ctx["manifest"]
    task = ctx["task"]
    specs, input_shape, n_channels = _arch(manifest)
    estimator = ctx.get("estimator")
    ckpt = ctx["out_dir"] / "checkpoints" / "cf_estimator.npz"
    needs_estimator = any(r["regime"] != "base" for r in manifest["regimes"])
    if estimator is None and needs_estimator:
        if not ckpt.exists():
            raise ValueError("estimator checkpoint missing; run train-estimator first")
        estimator = load_checkpoint(ckpt, expect_specs=specs, expect_input_shape=input_shape)
        ctx["estimator"] = estimator

    n_est = _split_counts(ctx)
    task_ids = ctx["item_ids"][n_est:]
    labels = ctx["labels"][n_est:]
    features = _features_array(ctx, task_ids)
    split_cfg = manifest["split"]
    folds = manifest.get("folds", 1)
    val_fraction = split_cfg.get("val_fraction", 0.15)
    test_fraction = split_cfg.get("test_fraction", 0.25)
    task_name = manifest["task"].get("name", task.kind)

    out_dir = ctx["out_dir"]

    results = []
    fold_records = []
    for seed in manifest["seeds"]:
        splits = _make_splits(task, labels, folds, [seed, 17], val_fraction, test_fraction)
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
            for regime_dict in manifest["regimes"]:
                regime = make_config(
                    RegimeConfig,
                    {**regime_dict, "seed": int(seed), "dtype": manifest.get("dtype", "float64")},
                    "regime",
                )
                start = time.perf_counter()
                model, result = train_task(
                    task,
                    data,
                    specs,
                    input_shape,
                    n_channels,
                    regime,
                    cf_estimator=None if regime.regime == "base" else estimator,
                    fold=fold,
                )
                result.seconds = 0.0 if ctx["deterministic"] else time.perf_counter() - start
                cell = f"{task_name}_{regime.regime}_F{n_channels}_s{seed}_f{fold}"
                _write_csv(
                    out_dir / "curves" / f"{cell}.csv",
                    "epoch,train_total,train_task,train_kd,val_task",
                    (row.values() for row in result.curve),
                )
                save_checkpoint(
                    model.network,
                    out_dir / "checkpoints" / f"task_{cell}.npz",
                    extra={"regime": regime.regime, "cell": cell},
                )
                results.append((task_name, result))

    with open(out_dir / "folds.json", "w", encoding="utf-8") as fh:
        json.dump({"task_items": task_ids, "cells": fold_records}, fh, indent=2)
        fh.write("\n")
    write_results_csv(out_dir / "results.csv", results)
    ctx["results"] = [r for _, r in results]


def _write_csv(path, header, rows):
    """A header line, then one comma-joined line per row; floats get 8 decimals."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.8f}" if isinstance(v, float) else str(v) for v in row) + "\n")


def write_results_csv(path, results):
    """One row per (task, regime, channels, seed, fold) cell."""
    _write_csv(
        path,
        "task,regime,channels,seed,fold,metric,epochs,seconds",
        (
            [task_name, r.regime, r.n_channels, r.seed, r.fold,
             f"{r.metric_value:.6f}", r.epochs_run, f"{r.seconds:.3f}"]
            for task_name, r in results
        ),
    )


def run_experiment(manifest, out_dir, deterministic=False, stages=ALL_STAGES):
    """Execute the pipeline; returns the ExperimentResult list.

    Any stage failure raises :class:`StageError` naming the stage;
    artifacts written before the failure remain on disk.
    """
    validate_manifest(manifest)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ctx = {
        "manifest": manifest,
        "out_dir": out_dir,
        "deterministic": deterministic,
        "task": _task_spec(manifest),
    }
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


def read_results_csv(path):
    """Parse a results.csv into a list of row dicts."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = ["task", "regime", "channels", "seed", "fold", "metric", "epochs", "seconds"]
        if header != expected:
            raise ValueError(f"{path}: unexpected results header {header}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            task, regime, channels, seed, fold, metric, epochs, seconds = line.split(",")
            rows.append(
                {
                    "task": task,
                    "regime": regime,
                    "channels": int(channels),
                    "seed": int(seed),
                    "fold": int(fold),
                    "metric": float(metric),
                    "epochs": int(epochs),
                    "seconds": float(seconds),
                }
            )
    if not rows:
        raise ValueError(f"{path}: no result rows")
    return rows


def summarize_results(rows):
    """Per-regime means plus paired t-tests of every regime against base.

    Pairing is on (task, channels, seed, fold) cells.  Returns a dict with
    'means' and 'tests'; the test entry is None when pairing or variance
    preconditions fail (e.g. a single pair or zero-variance differences).
    """
    from .evaluation import paired_improvement_test

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
