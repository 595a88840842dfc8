"""The audio and features pass on the worker pool (``experiment.write_items``).

Blocks of items go to the pool workers, which synthesize or read each
waveform, compute its mel grid and write both; the calling process
synthesizes, reads and computes nothing.  The files are the same bytes
whatever the worker count, and the same as the block job run in-process.
"""

import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from cfdistill import experiment, fileio, pool
from cfdistill import features as features_module
from cfdistill import world as world_module
from cfdistill.cli import main as cli_main
from cfdistill.experiment import read_audio_dir, run_experiment, write_items
from cfdistill.features import FeatureConfig, Waveforms
from cfdistill.world import WorldConfig, generate_world

from conftest import make_tiny_manifest
from test_experiment import CONFIGS, child_env

# 70 items: two full blocks and a ragged third at ITEM_BLOCK = 32
CONFIG = WorldConfig(n_users=12, n_items=70, seed=8, duration=0.125)
FEATURES = FeatureConfig()


def file_digests(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*")) if p.is_file()
    }


def datasets_manifest(world_dir):
    manifest = make_tiny_manifest()
    del manifest["world"]
    manifest["datasets"] = {"logs": str(world_dir / "logs.tsv"),
                            "audio_dir": str(world_dir / "audio"),
                            "labels": str(world_dir / "labels.csv")}
    return manifest


def sources(tmp_path):
    """``{name: (item ids, waveforms)}`` for a generated world and for the
    audio files ``generate-world`` writes for it."""
    world = generate_world(CONFIG)
    experiment.write_world(world, tmp_path / "world")
    ids, files = read_audio_dir(tmp_path / "world" / "audio", CONFIG.sample_rate)
    assert ids == world.item_ids and isinstance(files, Waveforms)
    return {"generated": (world.item_ids, world.waveforms), "files": (ids, files)}


def test_pool_and_in_process_block_job_write_the_same_bytes(tmp_path):
    assert experiment.ITEM_BLOCK < CONFIG.n_items
    for name, (ids, waveforms) in sources(tmp_path).items():
        pooled, local = tmp_path / f"{name}_pool", tmp_path / f"{name}_local"
        shapes = write_items(ids, waveforms, pooled / "audio", FEATURES, pooled / "features")
        local_shapes = experiment._write_block(
            ids, waveforms, local / "audio", FEATURES, local / "features")
        assert shapes == local_shapes == [(96, 6)] * CONFIG.n_items
        assert len(file_digests(pooled)) == 3 * CONFIG.n_items  # grid, audio and sidecar
        assert file_digests(pooled) == file_digests(local)


def test_audio_only_pass_writes_what_generate_world_writes(tmp_path):
    """``write_world`` sends its audio through the same block job, with no grids."""
    world = generate_world(CONFIG)
    experiment.write_world(world, tmp_path / "world")
    experiment._write_block(world.item_ids, world.waveforms, tmp_path / "local", None, None)
    assert file_digests(tmp_path / "world" / "audio") == file_digests(tmp_path / "local")
    assert len(file_digests(tmp_path / "local")) == 2 * CONFIG.n_items


@pytest.mark.skipif(pool.worker_count() < 2, reason="needs two CPUs")
def test_one_and_two_cpus_give_the_same_bytes(tmp_path):
    """A child narrowed to one CPU runs the pass on one worker, one with two
    CPUs on two; every file of world and features is the same bytes."""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(make_tiny_manifest()), encoding="utf-8")
    digests = {}
    for cpus in (1, 2):
        out = tmp_path / f"cpus{cpus}"
        script = (
            "import os\n"
            f"os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])\n"
            "import json\n"
            "from cfdistill import pool\n"
            "from cfdistill.experiment import run_experiment\n"
            f"assert pool.worker_count() == {cpus}\n"
            "if __name__ == '__main__':\n"
            f"    manifest = json.load(open({str(manifest)!r}))\n"
            f"    run_experiment(manifest, {str(out)!r}, stages=('world', 'features'))\n"
        )
        subprocess.run([sys.executable, "-c", script], env=child_env(), check=True, timeout=300)
        digests[cpus] = file_digests(out)
    assert len(digests[1]) == 3 + 3 * 36 + 1  # world/, audio, grids and manifest.json
    assert digests[1] == digests[2]


SYNTHESIZE = world_module.item_waveform


def _refuse(*args, **kwargs):
    """Stands in for ``item_waveform`` and ``melspectrogram``: it fails in the
    calling process.  A world's ``waveforms`` carries it to the pool workers
    (in the ``partial`` they unpickle), where it synthesizes as
    ``item_waveform`` does."""
    if not pool.in_worker():
        raise AssertionError("the calling process synthesized audio or computed a mel grid")
    return SYNTHESIZE(*args, **kwargs)


def test_parent_never_synthesizes_or_computes_a_grid(tmp_path, monkeypatch):
    """A whole run, and generate-world, leave every waveform and grid to the
    workers.  The workers are spawned, so the patches here reach them only
    through the ``partial`` that a world's ``waveforms`` carries."""
    for module in (world_module, experiment, features_module):
        for name in ("item_waveform", "melspectrogram"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _refuse)
    path = tmp_path / "manifest.json"
    path.write_text((CONFIGS / "tiny.json").read_text(encoding="utf-8"), encoding="utf-8")
    out = tmp_path / "run"
    assert cli_main(["run", str(path), "--out", str(out), "--deterministic"]) == 0
    n_items = json.loads(path.read_text(encoding="utf-8"))["world"]["n_items"]
    assert len(list((out / "world" / "audio").glob("*.f32"))) == n_items
    assert len(list((out / "features").glob("*.ftab"))) == n_items
    world_config = tmp_path / "world.json"
    world_config.write_text(json.dumps({"n_users": 6, "n_items": 5, "duration": 0.125}),
                            encoding="utf-8")
    assert cli_main(["generate-world", str(world_config), str(tmp_path / "world")]) == 0
    assert len(list((tmp_path / "world" / "audio").glob("*.f32"))) == 5


class Tracker:
    """Counts objects alive: ``track(obj)`` counts ``obj`` until it is freed."""

    def __init__(self):
        self.live = self.peak = self.made = 0

    def _freed(self):
        self.live -= 1

    def track(self, obj):
        weakref.finalize(obj, self._freed)
        self.live += 1
        self.made += 1
        self.peak = max(self.peak, self.live)
        return obj


def test_block_job_holds_one_waveform_and_one_grid_at_a_time(tmp_path, monkeypatch):
    waves, grids = Tracker(), Tracker()
    synthesize, mel = world_module.item_waveform, experiment.melspectrogram

    def tracked_wave(*args):
        wave = synthesize(*args)
        waves.track(wave.samples)
        return wave

    def tracked_mel(*args):
        spectrogram = mel(*args)
        grids.track(spectrogram.grid)
        return spectrogram

    monkeypatch.setattr(world_module, "item_waveform", tracked_wave)
    monkeypatch.setattr(experiment, "melspectrogram", tracked_mel)
    world = generate_world(CONFIG)
    experiment._write_block(world.item_ids, world.waveforms, tmp_path / "audio", FEATURES,
                            tmp_path / "features")
    assert waves.made == grids.made == CONFIG.n_items
    assert waves.peak == grids.peak == 1
    assert waves.live == grids.live == 0


def test_datasets_world_stage_checks_every_file_and_keeps_no_clip(tmp_path, monkeypatch):
    world = generate_world(CONFIG)
    experiment.write_world(world, tmp_path / "world")
    clips = Tracker()
    read = fileio.read_audio

    def tracked(path, expect_rate=None):
        samples, rate = read(path, expect_rate=expect_rate)
        return clips.track(samples), rate

    monkeypatch.setattr(fileio, "read_audio", tracked)
    settings = experiment.validate_manifest(datasets_manifest(tmp_path / "world"))
    settings["features"] = FeatureConfig(sample_rate=CONFIG.sample_rate)
    handover = experiment._stage_world(settings, tmp_path / "out")
    ids, audio = handover["audio"]
    assert ids == world.item_ids and isinstance(audio, Waveforms)
    assert clips.made == CONFIG.n_items and clips.peak == 1 and clips.live == 0
    assert all(path.is_absolute() and rate == CONFIG.sample_rate for path, rate in audio.args)
    assert len(pickle.dumps(audio[:experiment.ITEM_BLOCK])) < 200 * experiment.ITEM_BLOCK


def test_datasets_bad_file_still_fails_in_the_world_stage(tmp_path):
    experiment.write_world(generate_world(CONFIG), tmp_path / "world")
    bad = tmp_path / "world" / "audio" / "item_00003.f32"
    bad.write_bytes(bad.read_bytes()[:-4])
    with pytest.raises(experiment.StageError, match="stage=world: .*item_00003.f32"):
        run_experiment(datasets_manifest(tmp_path / "world"), tmp_path / "out",
                       stages=("world", "als", "features"))
    assert not (tmp_path / "out" / "features").exists()


def test_slices_and_indexing_give_the_same_waveforms():
    world = generate_world(CONFIG)
    audio = world.waveforms
    assert len(audio) == CONFIG.n_items
    part = audio[30:40]
    assert isinstance(part, Waveforms) and len(part) == 10
    assert [i for _, i in part.args] == list(range(30, 40))
    assert len(pickle.dumps(part)) < 2000
    for j, i in enumerate(range(30, 40)):
        want = world_module.item_waveform(CONFIG, world.item_latents[i], i).samples
        assert np.array_equal(part[j].samples, want)
        assert np.array_equal(audio[i].samples, want)
        assert np.array_equal(audio[i - len(audio)].samples, want)
    assert np.array_equal(audio[::-1][0].samples, audio[-1].samples)
    with pytest.raises(IndexError):
        audio[len(audio)]
    with pytest.raises(IndexError):
        part[10]


def test_parent_features_pass_starts_no_thread(tmp_path, monkeypatch):
    """With the pool running, the pass starts no thread in the calling process."""
    pool.starmap(os.getpid, [()])
    started = []
    start = threading.Thread.start

    def record(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    run_experiment(make_tiny_manifest(), tmp_path / "out", stages=("world", "features"))
    assert started == []
    assert len(list((tmp_path / "out" / "features").glob("*.ftab"))) == 36
