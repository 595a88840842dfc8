"""Shared fixtures: a tiny, seconds-scale experiment manifest, preset
networks and WAV files."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from cfdistill.nn.network import PRESETS, build_network

TINY_MANIFEST = {
    "schema_version": 1,
    "task": {"kind": "classification", "n_classes": 4, "metric": "accuracy", "name": "tiny"},
    "world": {
        "n_users": 24,
        "n_items": 36,
        "latent_dim": 4,
        "seed": 9,
        "noise_level": 0.25,
    },
    "split": {"n_estimator_items": 20, "val_fraction": 0.2, "test_fraction": 0.25},
    "als": {"n_factors": 40, "reg_lambda": 0.1, "alpha": 40.0, "n_iterations": 4, "seed": 11},
    "features": {},
    "architecture": {"preset": "cf_estimator_desk", "n_channels": 8},
    "estimator": {
        "epochs": 2,
        "batch_size": 8,
        "learning_rate": 0.003,
        "seed": 100,
        "val_fraction": 0.2,
        "normalize_targets": True,
    },
    "regimes": [
        {"regime": "base", "epochs": 2, "batch_size": 8, "learning_rate": 0.001},
        {"regime": "kd", "kd_weight": 1.0, "epochs": 2, "batch_size": 8, "learning_rate": 0.001},
    ],
    "seeds": [0],
    "folds": 1,
    "dtype": "float32",
}


def make_tiny_manifest(**overrides):
    manifest = copy.deepcopy(TINY_MANIFEST)
    manifest.update(overrides)
    return manifest


@pytest.fixture
def tiny_manifest():
    return make_tiny_manifest()


@pytest.fixture
def tiny_manifest_file(tmp_path, tiny_manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(tiny_manifest, indent=2), encoding="utf-8")
    return path


def build_preset(name, n_channels, seed=0, dtype=np.float64, **kwargs):
    """Build a preset network; returns (model, specs, input_shape)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    specs, input_shape = PRESETS[name](n_channels, **kwargs)
    return build_network(specs, input_shape, seed=seed, dtype=dtype), specs, input_shape


def write_wav(path, samples, sample_rate):
    """Write mono float samples in [-1, 1) as 16-bit PCM."""
    samples = np.asarray(samples, dtype=np.float64)
    clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype(np.int16)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(path, int(sample_rate), pcm)
