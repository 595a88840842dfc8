"""The three benchmark workloads: inputs from a seed, one timed job, and
the check of its outputs.

Each workload has ``prepare(seed, inputs)`` (set-up: makes the inputs from
the seed), ``load(inputs)`` (reads them back, untimed), ``run(state, out)``
(the timed job; it calls the program only through module attributes, so
the tracer's wrappers see every call) and ``check(state, out)`` (untimed;
raises ``CheckFailed`` or returns the work done and a fingerprint).
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import time
from pathlib import Path

import numpy as np

from cfdistill import experiment, features, fileio, transfer, world
from cfdistill.nn import network

CATALOG_ITEMS = 256
CATALOG_BATCH = 64
CHECK_ITEMS = 8
# float32 batched forward vs float64 one-item forward of the same weights:
# |y32 - y64| <= CATALOG_ATOL + CATALOG_RTOL * max |y64|.
CATALOG_RTOL = 1e-4
CATALOG_ATOL = 1e-6
MEL_SHAPE = (96, 80)
# The paper's experiment, relative to the root of the source tree (the
# working directory of every benchmark process).
DEFAULT_CONFIG = Path("configs") / "default.json"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _manifest(seed, epochs, **world_sizes):
    """configs/default.json cut to one seed, ``epochs`` epochs for the
    estimator and every regime, early stopping off."""
    manifest = _read_json(DEFAULT_CONFIG)
    del manifest["output_dir"]
    manifest["seeds"] = [seed]
    manifest["world"].update(seed=seed, **world_sizes)
    for part in (manifest["estimator"], *manifest["regimes"]):
        part["epochs"] = epochs
        part.pop("patience", None)
    return manifest


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _finite_csv(path, columns=None):
    """Rows of a CSV file whose ``columns`` (default: all) are finite numbers."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"{path.name}: no rows")
    for row in rows:
        if not all(math.isfinite(float(row[c])) for c in columns or row):
            raise CheckFailed(f"{path.name}: non-finite value in {row}")
    return rows


class DeskTrain:
    """The paper's experiment at desk shapes: 200 users x 300 items, 4 regimes."""

    stages = ("world", "als", "features", "estimator", "tasks")
    epochs = 2

    def prepare(self, seed, inputs):
        _write_json(inputs / "manifest.json", _manifest(seed, self.epochs))

    def load(self, inputs):
        return {"manifest": _read_json(inputs / "manifest.json")}

    def run(self, state, out):
        experiment.run_experiment(state["manifest"], out, deterministic=True, stages=self.stages)

    def check(self, state, out):
        path = out / "results.csv"
        rows = _finite_csv(path, ["metric", "epochs", "seconds"])
        regimes = sorted(r["regime"] for r in rows)
        if regimes != ["base", "fix", "init", "kd"]:
            raise CheckFailed(f"results.csv regimes {regimes}")
        for row in rows:
            if not 0.0 <= float(row["metric"]) <= 1.0:
                raise CheckFailed(f"metric {row['metric']} outside [0, 1]")
        curves = sorted((out / "curves").glob("*.csv"))
        if len(curves) != 5:
            raise CheckFailed(f"{len(curves)} curve files, expected 5")
        for curve in curves:
            if len(_finite_csv(curve)) != self.epochs:
                raise CheckFailed(f"{curve.name}: expected {self.epochs} epochs")
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


class Ingest(DeskTrain):
    """Logs and audio in, item embeddings and mel grids out: 3000 users x 800 items."""

    stages = ("world", "als", "features")
    n_items = 800

    def prepare(self, seed, inputs):
        manifest = _manifest(seed, self.epochs, n_users=3000, n_items=self.n_items)
        _write_json(inputs / "manifest.json", manifest)

    def check(self, state, out):
        with open(out / "world" / "labels.csv", encoding="utf-8") as fh:
            items = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
        ids, table, _ = fileio.load_float_table(out / "embeddings" / "item_embeddings.ftab")
        if len(items) != self.n_items or sorted(ids) != sorted(items):
            raise CheckFailed("embedding table does not have one row per item")
        if not np.all(np.isfinite(table)):
            raise CheckFailed("embedding table is not finite")
        grids = sorted((out / "features").glob("*.ftab"))
        if len(grids) != self.n_items:
            raise CheckFailed(f"{len(grids)} mel grids for {self.n_items} items")
        for path in grids:
            _, grid, _ = fileio.load_float_table(path)
            if grid.shape != MEL_SHAPE or not np.all(np.isfinite(grid)):
                raise CheckFailed(f"{path.name}: mel grid {grid.shape}")
        with open(out / "world" / "logs.tsv", "rb") as fh:
            interactions = sum(1 for _ in fh)
        return {"work": interactions}


class EmbedCatalog:
    """Cold-start catalog: embeddings for unseen songs from a saved estimator."""

    def prepare(self, seed, inputs):
        manifest = _manifest(seed, 1)
        rng = np.random.default_rng([seed, 7])
        fit_items = 24
        config = world.WorldConfig(
            **{**manifest["world"], "n_users": 1, "n_items": fit_items + CATALOG_ITEMS}
        )
        latents = rng.uniform(-1.0, 1.0, size=(config.n_items, config.latent_dim))
        waves = [world.item_waveform(config, latents[i], i) for i in range(config.n_items)]
        mel_config = features.FeatureConfig(**manifest["features"])
        grids = np.stack([features.melspectrogram(w, mel_config).grid for w in waves[:fit_items]])
        dim = manifest["als"]["n_factors"]
        targets = rng.standard_normal((fit_items, dim))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        specs, input_shape = network.cf_estimator_desk(manifest["architecture"]["n_channels"])
        est = manifest["estimator"]
        config_fit = transfer.TrainConfig(
            epochs=1, batch_size=est["batch_size"], learning_rate=est["learning_rate"], seed=seed,
            dtype=manifest["dtype"],
        )
        model, _ = transfer.train_cf_estimator(
            grids[..., None], targets, specs, input_shape, config_fit,
            np.arange(16), np.arange(16, fit_items),
        )
        network.save_checkpoint(model, inputs / "estimator.npz")
        catalog = np.stack([w.samples for w in waves[fit_items:]]).astype(np.float32)
        np.save(inputs / "catalog.npy", catalog)
        _write_json(inputs / "catalog.json",
                    {"seed": seed, "dim": dim, "features": manifest["features"]})

    def load(self, inputs):
        info = _read_json(inputs / "catalog.json")
        waves = np.load(inputs / "catalog.npy")
        picks = np.random.default_rng([info["seed"], 8]).choice(len(waves), CHECK_ITEMS,
                                                                replace=False)
        return {
            "checkpoint": inputs / "estimator.npz",
            "waves": waves,
            "ids": [f"song_{i:05d}" for i in range(len(waves))],
            "picks": np.sort(picks),
            "dim": info["dim"],
            "features": features.FeatureConfig(**info["features"]),
        }

    def _grid(self, state, samples):
        wave = features.Waveform(samples, state["features"].sample_rate)
        return features.melspectrogram(wave, state["features"]).grid

    def run(self, state, out):
        model = network.load_checkpoint(state["checkpoint"])
        x = np.stack([self._grid(state, w) for w in state["waves"]])[..., None]
        emb = transfer.predict_network(model, x, batch_size=CATALOG_BATCH)
        fileio.save_float_table(out / "catalog_embeddings.ftab", state["ids"], emb)

    def check(self, state, out):
        ids, emb, _ = fileio.load_float_table(out / "catalog_embeddings.ftab")
        if ids != state["ids"] or emb.shape != (len(state["ids"]), state["dim"]):
            raise CheckFailed(f"catalog table {emb.shape} does not have one row per item")
        if not np.all(np.isfinite(emb)):
            raise CheckFailed("catalog embeddings are not finite")
        model = network.load_checkpoint(state["checkpoint"])
        ref = network.build_network(model.specs, model.input_shape, dtype=np.float64)
        ref.set_state({k: v.astype(np.float64) for k, v in model.get_state().items()})
        for i in state["picks"]:
            grid = self._grid(state, state["waves"][i])
            want = ref.forward(grid[None, :, :, None], train=False, keep_cache=False)[0][0]
            tolerance = CATALOG_ATOL + CATALOG_RTOL * float(np.abs(want).max())
            if np.abs(emb[i] - want).max() > tolerance:
                raise CheckFailed(f"item {i}: float32 catalog row differs from float64 forward")
        return {"work": len(ids)}


WORKLOADS = {"desk_train": DeskTrain(), "ingest": Ingest(), "embed_catalog": EmbedCatalog()}


class TrainProbe:
    """Time inside train_cf_estimator/train_task and the train-mode samples
    they process (the fix regime trains only its head, so none).

    Installed on every desk_train run, traced or not: it wraps two calls
    per cell, far too few to move the timings.
    """

    def __init__(self):
        self.seconds = 0.0
        self.samples = 0

    def install(self):
        for name in ("train_cf_estimator", "train_task"):
            original = getattr(transfer, name)
            wrapped = self._wrap(original)
            for mod in (transfer, experiment):
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)

    def _wrap(self, fn):
        def probed(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds += time.perf_counter() - start
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            if "regime" in bound:
                if bound["regime"].regime != "fix":
                    self.samples += len(bound["data"].train_idx) * result[1].epochs_run
            else:
                self.samples += len(bound["train_idx"]) * result[1]["epochs_run"]
            return result

        return probed
