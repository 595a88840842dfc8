"""End-to-end experiment orchestration.

A JSON manifest (schema_version 1) names the world or dataset paths, the
factorization / feature / architecture / training settings, the regime
list, seeds, and folds.  ``run_experiment`` executes the stages

    world -> als -> features -> estimator -> tasks

persisting every artifact under the output directory.  Stages hand over
through that directory: estimator and tasks read only the manifest's
settings and files written there, so ``tasks`` runs alone after
``estimator``.  Only world hands anything over in memory, within one call:
the interactions to als, and the item ids and lazy waveforms to features.
A stage failure aborts with the stage name; artifacts written so far stay
on disk for diagnosis.  Identical manifests reproduce identical result
files in deterministic mode.
"""

from __future__ import annotations

import dataclasses
import json
import time
import typing
from pathlib import Path
from typing import Optional

import numpy as np

from . import fileio, pool
from .als import (
    AlsConfig,
    build_interaction_matrix,
    als_fit,
    item_vector,
    load_embedding,
    parse_log_file,
    save_embedding,
)
from .evaluation import paired_improvement_test, stratified_kfold, stratified_split
from .features import FeatureConfig, Waveform, Waveforms, melspectrogram
from .nn.network import PRESETS, build_network, load_checkpoint, save_checkpoint
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
# The stage whose in-memory handover a stage takes; it must run before it in
# the same call.  Every other input is a file under the run directory.
STAGE_INPUTS = {"als": "world", "features": "world"}
EMBEDDING = Path("embeddings") / "item_embeddings.ftab"
ESTIMATOR = Path("checkpoints") / "cf_estimator.npz"
LABELS = Path("world") / "labels.csv"
# results.csv columns and the type each is read back as
RESULT_COLUMNS = {"task": str, "regime": str, "channels": int, "seed": int, "fold": int,
                  "metric": float, "epochs": int, "seconds": float}
REQUIRED = object()  # a key with no default
# The manifest sections that the stages before tasks read; a stage list that
# starts later must come with the same ones (check_upstream).
UPSTREAM = ("task", "world", "datasets", "split", "als", "features", "architecture",
            "estimator", "dtype")
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
    manifest = fileio.read_json(path)
    validate_manifest(manifest)
    return manifest


def _check_type(label, value, kind):
    """Raise a ValueError naming ``label`` unless ``value`` is of ``kind``: int,
    float, bool, str, dict, list or an Optional of one.  An int passes as a
    float; a bool passes only as a bool; a float must be finite."""
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
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{label} must be a finite number, got {value!r}")


def _defaults(path):
    return {key: default for key, (_, default) in SETTINGS.get(path, {}).items()}


def parse_section(values, path, cls=None, required=(), **fixed):
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
    for key, value in values.items():
        if key in kinds:
            _check_type(f"manifest key '{prefix}{key}'", value, kinds[key])
    if cls is None:
        return {**_defaults(path), **values}
    try:
        return cls(**{k: v for k, v in values.items() if k not in own}, **fixed)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest {path}: {exc}") from None


def validate_manifest(manifest):
    """Parse a manifest into the settings its stages use, keyed as returned.

    Every key, each range its config class checks, and each setting that
    must agree with one in another section is checked here before any stage
    runs.  Each regime's seed is set per cell from ``seeds``.
    """
    top = parse_section(manifest, "")
    if top["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"manifest schema_version must be {SCHEMA_VERSION}, got {top['schema_version']!r}"
        )
    if (top["world"] is None) == (top["datasets"] is None):
        raise ValueError("manifest needs exactly one of 'world' or 'datasets'")
    seeds = top["seeds"]
    for i, seed in enumerate(seeds):
        _check_type(f"manifest key 'seeds[{i}]'", seed, int)
        if seed < 0:
            raise ValueError(f"manifest key 'seeds[{i}]' must be >= 0, got {seed}")
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"manifest seeds must be a non-empty list of distinct ints, got {seeds}")
    if not top["regimes"]:
        raise ValueError("manifest must list at least one regime")
    if top["folds"] < 1:
        raise ValueError(f"manifest folds must be a positive int, got {top['folds']!r}")
    classes = isinstance(top["task"], dict) and top["task"].get("kind") == "classification"
    task = parse_section(top["task"], "task", TaskSpec, required=("n_classes",) if classes else ())
    world = None if top["world"] is None else parse_section(top["world"], "world", WorldConfig)
    als = parse_section(top["als"], "als", AlsConfig)
    features = parse_section(top["features"], "features", FeatureConfig)
    arch = parse_section(top["architecture"], "architecture")
    if arch["preset"] not in PRESETS:
        raise ValueError(f"unknown architecture preset {arch['preset']!r}")
    fifth = arch["include_fifth_block"]
    try:
        specs, input_shape = PRESETS[arch["preset"]](
            arch["n_channels"], **({} if fifth is None else {"include_fifth_block": fifth})
        )
        # a throwaway build checks every layer's shape
        width = build_network(specs, input_shape).output_shape[0]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest architecture: {exc}") from None
    # (key, value, the key or setting it must equal, its value)
    pairs = [("als.n_factors", als.n_factors, "the architecture.preset output width", width)]
    if world is not None:
        pairs += [
            ("world.task_kind", world.task_kind, "task.kind", task.kind),
            ("world.sample_rate", world.sample_rate, "features.sample_rate", features.sample_rate),
            ("mel grids (features.n_mels, frames of world.duration)",
             (features.n_mels, features.n_frames(world.n_samples)),
             "the architecture.preset input", tuple(input_shape[:2])),
        ]
        if task.kind == "classification":
            pairs.append(("world.n_classes", world.n_classes, "task.n_classes", task.n_classes))
    for key, ours, other, theirs in pairs:
        if ours != theirs:
            raise ValueError(f"manifest {key} {ours!r} != {other} {theirs!r}")
    dtype = top["dtype"]
    if dtype not in ("float32", "float64"):
        raise ValueError(f"manifest key 'dtype' must be 'float32' or 'float64', got {dtype!r}")
    train = parse_section(top["estimator"], "estimator", TrainConfig, dtype=dtype)
    estimator = {**_defaults("estimator"), **top["estimator"]}
    return {
        "task": task, "task_name": top["task"].get("name") or task.kind,
        "world": world, "datasets": None if world else parse_section(top["datasets"], "datasets"),
        "als": als, "features": features,
        "preset": arch["preset"], "n_channels": arch["n_channels"],
        "specs": specs, "input_shape": input_shape,
        "train": train, "estimator_val_fraction": estimator["val_fraction"],
        "normalize_targets": estimator["normalize_targets"],
        "split": parse_section(top["split"], "split"),
        "regimes": [
            parse_section(r, f"regimes[{i}]", RegimeConfig, seed=0, dtype=dtype)
            for i, r in enumerate(top["regimes"])
        ],
        "seeds": top["seeds"], "folds": top["folds"],
    }


# Rows of logs.tsv formatted per write; bounds the Python objects alive at once.
LOG_BLOCK = 65536
# Items per pool job of the audio and features pass (``write_items``).
ITEM_BLOCK = 32


def write_world(world: World, out_dir, audio=True):
    """Persist a generated world: logs, labels, true latents and (unless
    ``audio`` is false) each item's audio, synthesized and written on the
    pool workers (see ``write_items``)."""
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
    _write_labels(out_dir / "labels.csv", world.item_ids, world.labels, world.config.task_kind)
    fileio.save_float_table(
        out_dir / "latents.ftab", world.item_ids, world.item_latents, meta={"kind": "true_latents"}
    )
    if audio:
        write_items(world.item_ids, world.waveforms, audio_dir=out_dir / "audio")


def _write_labels(path, item_ids, labels, kind):
    """``labels.csv``: a header, then ``item_id,label`` per item, in order."""
    text = (lambda v: str(int(v))) if kind == "classification" else (lambda v: repr(float(v)))
    _write_csv(path, "item_id,label", ((i, text(v)) for i, v in zip(item_ids, labels)))


def _load_labels_csv(path, task, item_ids=None):
    """``{item_id: label}`` for a ``TaskSpec``; a malformed line, one that is
    not UTF-8 or a class outside ``[0, task.n_classes)`` raises ``ValueError``
    naming ``path:lineno``.  Given ``item_ids``, the labels of those items,
    in that order; one without a label raises naming ``path``."""
    classes = task.kind == "classification"
    parse, kind_name = (int, "an integer") if classes else (float, "a number")
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
        if classes and not 0 <= labels[item_id] < task.n_classes:
            raise ValueError(f"{path}:{lineno}: label {value!r} is not a class in "
                             f"[0, {task.n_classes}) (task.n_classes {task.n_classes})")
    if item_ids is None:
        return labels
    missing = [i for i in item_ids if i not in labels]
    if missing:
        raise ValueError(
            f"{path}: labels file is missing {len(missing)} item ids, e.g. {missing[0]!r}"
        )
    return {i: labels[i] for i in item_ids}


def _stage_world(settings, out_dir):
    """Write ``world/``; returns the in-memory handover: ``{"logs": interactions,
    "audio": (item ids, lazy waveforms)}``.  Once the labels are written it
    builds every seed's task splits, so a split that would be empty fails
    here and not after the estimator has trained."""
    if settings["world"] is not None:
        world = generate_world(settings["world"])
        write_world(world, out_dir / "world", audio=False)  # see _stage_features
        handover = {"logs": world.interactions, "audio": (world.item_ids, world.waveforms)}
    else:
        paths, task = settings["datasets"], settings["task"]
        for path in paths.values():
            if not Path(path).exists():
                raise ValueError(f"dataset path does not exist: {path}")
        logs = parse_log_file(paths["logs"])
        item_ids, waveforms = read_audio_dir(paths["audio_dir"], settings["features"].sample_rate)
        labels = _load_labels_csv(paths["labels"], task, item_ids)
        _write_labels(out_dir / LABELS, item_ids, labels.values(), task.kind)
        handover = {"logs": logs, "audio": (item_ids, waveforms)}
    _, labels, n_est = _read_items(settings, out_dir)
    for seed in settings["seeds"]:
        for train_idx, val_idx, test_idx, _ in _make_splits(settings, labels[n_est:], seed):
            TaskData(None, None, train_idx, val_idx, test_idx)  # raises on an empty split
    return handover


def _read_waveform(path, sample_rate):
    return Waveform(*fileio.read_audio(path, expect_rate=sample_rate))


def read_audio_dir(audio_dir, sample_rate):
    """Item ids (file stems) and waveforms of the audio files in a directory.
    Every file is read and checked here, one at a time, so a bad file fails
    now; none is kept.  The waveforms hold absolute paths, so a pool worker,
    whose working directory was fixed when it was spawned, finds the files."""
    files = fileio.list_audio_files(audio_dir)
    audio = Waveforms(_read_waveform, [(f.absolute(), sample_rate) for f in files])
    for i in range(len(audio)):
        audio[i]  # read, checked and dropped
    return [f.stem for f in files], audio


def fit_embedding(logs, config: AlsConfig, path):
    """Factorize listening logs, save the item table; returns (matrix, embedding).
    The caller should hold no other reference to ``logs``: they are dropped
    once the matrix is built, so the fit runs with one copy of the logs."""
    matrix = build_interaction_matrix(logs)
    del logs
    embedding = als_fit(matrix, config)
    save_embedding(embedding, path, meta={"alpha": config.alpha, "reg_lambda": config.reg_lambda})
    return matrix, embedding


def write_items(item_ids, waveforms, audio_dir=None, config=None, features_dir=None):
    """One pass over the items on the pool workers: each item's waveform is
    written as ``<audio_dir>/<item_id>.f32`` plus its sidecar if
    ``audio_dir`` is given, and its mel grid as
    ``<features_dir>/<item_id>.ftab`` if ``config`` is given.  Returns the
    grid shapes, in item order.

    ``waveforms`` is a picklable sequence whose slices are cheap (a
    ``features.Waveforms``): contiguous blocks of ``ITEM_BLOCK`` items go to
    the workers (``pool.starmap``), and the calling process synthesizes,
    reads and computes nothing.
    """
    if len(waveforms) != len(item_ids):
        raise ValueError(f"{len(item_ids)} item ids for {len(waveforms)} waveforms")
    audio_dir, features_dir = (None if d is None else Path(d).absolute()
                               for d in (audio_dir, features_dir))
    blocks = pool.starmap(_write_block, [
        (item_ids[a:a + ITEM_BLOCK], waveforms[a:a + ITEM_BLOCK], audio_dir, config, features_dir)
        for a in range(0, len(item_ids), ITEM_BLOCK)
    ])
    return [shape for block in blocks for shape in block]


def _write_block(item_ids, waveforms, audio_dir, config, features_dir):
    """``write_items`` for one block, in the calling process (a pool worker).
    One waveform and one grid are alive at a time."""
    shapes = []
    for k, item_id in enumerate(item_ids):
        wave = waveforms[k]
        if config is not None:
            mel = melspectrogram(wave, config)
            fileio.save_float_table(
                features_dir / f"{item_id}.ftab",
                [f"mel_{i:03d}" for i in range(mel.n_mels)],
                mel.grid,
                meta={"item_id": item_id, "n_frames": mel.n_frames},
            )
            shapes.append(mel.grid.shape)
            del mel
        if audio_dir is not None:
            fileio.write_raw_float32(audio_dir / f"{item_id}.f32", wave.samples, wave.sample_rate)
        del wave  # so the next item is read with none alive
    return shapes


def _stage_features(settings, out_dir, item_ids, waveforms):
    # A generated world's audio is written here, in one pass with the grids.
    audio_dir = out_dir / "world" / "audio" if settings["world"] is not None else None
    shapes = set(write_items(
        item_ids, waveforms, audio_dir, settings["features"], out_dir / "features"
    ))
    if len(shapes) != 1:
        raise ValueError(f"inconsistent mel grid shapes: {sorted(shapes)}")


def _read_items(settings, out_dir):
    """Item ids and labels in ``world/labels.csv`` order, and how many of them
    (the first) are estimator items."""
    labels = _load_labels_csv(out_dir / LABELS, settings["task"])
    n_est = settings["split"]["n_estimator_items"]
    if not (0 < n_est < len(labels)):
        raise ValueError(f"n_estimator_items={n_est} must be in (0, {len(labels)})")
    return list(labels), np.asarray(list(labels.values())), n_est


def _read_grids(out_dir, item_ids, input_shape, dtype):
    """The items' mel grids from ``features/`` as network inputs of ``dtype``
    (the manifest's), read one at a time into one array."""
    shape = tuple(input_shape[:2])
    grids = np.empty((len(item_ids), *shape, 1), dtype=dtype)
    for k, item_id in enumerate(item_ids):
        grid = fileio.load_float_table(out_dir / "features" / f"{item_id}.ftab")[1]
        if grid.shape != shape:
            raise ValueError(f"mel grids {grid.shape} do not match architecture input {shape}")
        grids[k, :, :, 0] = grid
    return grids


def _stage_estimator(settings, out_dir):
    item_ids, _, n_est = _read_items(settings, out_dir)
    est_ids = item_ids[:n_est]
    config = settings["train"]
    features = _read_grids(out_dir, est_ids, settings["input_shape"], config.dtype)
    embedding = load_embedding(out_dir / EMBEDDING)
    targets = np.stack([item_vector(embedding, i) for i in est_ids], axis=0)
    if settings["normalize_targets"]:
        norms = np.linalg.norm(targets, axis=1, keepdims=True)
        if np.any(norms == 0):
            raise ValueError("cannot normalize zero embedding targets")
        targets = targets / norms
    one_stratum = np.zeros(n_est, dtype=np.int64)
    train_idx, val_idx = stratified_split(
        one_stratum, (settings["estimator_val_fraction"],), seed=[config.seed, 3]
    )
    model, info = train_cf_estimator(
        features, targets, settings["specs"], settings["input_shape"], config, train_idx, val_idx
    )
    save_checkpoint(model, out_dir / ESTIMATOR, extra={"preset": settings["preset"]})
    _write_csv(
        out_dir / "curves" / "estimator.csv",
        "epoch,train_loss,val_loss",
        (row.values() for row in info["curve"]),
    )


def _make_splits(settings, labels, seed):
    """(train, val, test, fold_index) splits over the task items for one
    manifest seed, stratified by class; regression items are one stratum."""
    split, folds, seed = settings["split"], settings["folds"], [seed, 17]
    fractions = (split["val_fraction"], split["test_fraction"])
    kind = settings["task"].kind
    strata = labels if kind == "classification" else np.zeros(len(labels), dtype=np.int64)
    if folds == 1:
        return [(*stratified_split(strata, fractions, seed=seed), 0)]
    out = []
    for f, (trainval, test) in enumerate(stratified_kfold(strata, k=folds, seed=seed)):
        sub_train, sub_val = stratified_split(strata[trainval], fractions[:1], seed=[seed, f])
        out.append((trainval[sub_train], trainval[sub_val], test, f))
    return out


def _stage_tasks(settings, out_dir, deterministic):
    task, specs, input_shape = settings["task"], settings["specs"], settings["input_shape"]
    ckpt = out_dir / ESTIMATOR
    if not ckpt.exists():
        raise ValueError(f"{ckpt}: estimator checkpoint missing; run train-estimator first")
    estimator = load_checkpoint(ckpt, expect_specs=specs, expect_input_shape=input_shape)
    item_ids, labels, n_est = _read_items(settings, out_dir)
    task_ids, labels = item_ids[n_est:], labels[n_est:]
    features = _read_grids(out_dir, task_ids, input_shape, settings["train"].dtype)
    # The estimator's outputs over the task items, computed once for every fix and kd cell.
    uses_teacher = any(r.regime in ("fix", "kd") for r in settings["regimes"])
    teacher = predict_network(estimator, features) if uses_teacher else None
    task_name, n_channels = settings["task_name"], settings["n_channels"]

    results = []
    fold_records = []
    for seed in settings["seeds"]:
        for train_idx, val_idx, test_idx, fold in _make_splits(settings, labels, seed):
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
            for regime in settings["regimes"]:
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
                result.seconds = 0.0 if deterministic else time.perf_counter() - start
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
    return [r for _, r in results]


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
    one listed without the stage whose handover it takes before it, or (for
    a list that does not start at world) a manifest whose upstream sections
    differ from the run directory's ``manifest.json`` is a ValueError raised
    before anything is written.
    """
    stages = tuple(stages)
    check_stages(stages)
    settings = validate_manifest(manifest)
    out_dir = Path(out_dir)
    if stages[0] != "world":
        check_upstream(manifest, out_dir / "manifest.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    with fileio.atomic_write(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    handover, results = {}, []  # world's in-memory outputs, each dropped once taken
    for name in stages:
        try:
            if name == "world":
                handover = _stage_world(settings, out_dir)
            elif name == "als":
                fit_embedding(handover.pop("logs"), settings["als"], out_dir / EMBEDDING)
            elif name == "features":
                _stage_features(settings, out_dir, *handover.pop("audio"))
            elif name == "estimator":
                _stage_estimator(settings, out_dir)
            else:
                results = _stage_tasks(settings, out_dir, deterministic)
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
    return results


def check_upstream(manifest, run_manifest):
    """Raise ValueError naming the first key (sections in :data:`UPSTREAM`
    order, keys sorted) whose value in ``manifest`` differs from the one in
    ``run_manifest``, the ``manifest.json`` of the run directory whose files
    later stages read; a key absent on one side reads as null.  A directory
    with no ``manifest.json`` passes (the stages report what is missing)."""
    if not Path(run_manifest).exists():
        return
    ran = fileio.read_json(run_manifest)
    if not isinstance(ran, dict):
        raise ValueError(f"{run_manifest}: not a manifest (a JSON object)")
    for section in UPSTREAM:
        ours, theirs = manifest.get(section), ran.get(section)
        if isinstance(ours, dict) and isinstance(theirs, dict):
            keys = [f"{section}.{k}" for k in sorted(ours.keys() | theirs.keys())
                    if ours.get(k) != theirs.get(k)]
        else:
            keys = [section] if ours != theirs else []
        if keys:
            raise ValueError(
                f"manifest key '{keys[0]}' differs from {run_manifest}, which the earlier "
                "stages ran with; use that manifest or rerun them"
            )


def check_stages(stages):
    """Raise ValueError naming the first stage that is unknown or that comes
    without the stage whose handover it takes (:data:`STAGE_INPUTS`) before it."""
    for i, name in enumerate(stages):
        if name not in ALL_STAGES:
            raise ValueError(f"unknown stage {name!r}; expected one of {ALL_STAGES}")
        need = STAGE_INPUTS.get(name)
        if need and need not in stages[:i]:
            raise ValueError(f"stage {name!r} needs stage {need!r} to run before it")


def read_results_csv(path):
    """Parse a results.csv into a list of row dicts; a malformed line, one
    that is not UTF-8 or one that repeats a (task, regime, channels, seed,
    fold) cell raises ``ValueError`` naming ``path:lineno``."""
    rows, cells = [], set()
    lines = fileio.text_lines(path)
    header = next(lines, (1, ""))[1].strip().split(",")
    if header != list(RESULT_COLUMNS):
        raise ValueError(f"{path}: unexpected results header {header}")
    for lineno, line in lines:
        fields = line.strip().split(",")
        if fields == [""]:
            continue
        if len(fields) != len(RESULT_COLUMNS):
            raise ValueError(f"{path}:{lineno}: expected {len(RESULT_COLUMNS)} fields, "
                             f"got {len(fields)}")
        raw = dict(zip(RESULT_COLUMNS, fields))
        try:
            row = {name: RESULT_COLUMNS[name](v) for name, v in raw.items()}
        except ValueError as exc:  # an int or float field that does not parse
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        for name in ("metric", "seconds"):
            if not np.isfinite(row[name]):
                raise ValueError(f"{path}:{lineno}: {name} {raw[name]!r} is not finite")
        cell = tuple(row[name] for name in ("task", "regime", "channels", "seed", "fold"))
        if cell in cells:
            raise ValueError(f"{path}:{lineno}: duplicate (task, regime, channels, seed, "
                             f"fold) cell {cell}")
        cells.add(cell)
        rows.append(row)
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
