"""Orchestration: stages, artifacts, failure policy, results files."""

import copy
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfdistill
from cfdistill import cli, experiment, transfer
from cfdistill import features as features_module
from cfdistill import world as world_module
from cfdistill.cli import MANIFEST_COMMANDS
from cfdistill.cli import main as cli_main
from cfdistill.als import load_embedding
from cfdistill.experiment import (
    StageError,
    read_results_csv,
    run_experiment,
    summarize_results,
    validate_manifest,
    write_results_csv,
)
from cfdistill.evaluation import r_squared
from cfdistill.features import FeatureConfig
from cfdistill.fileio import load_float_table, save_float_table, write_raw_float32
from cfdistill.nn.network import cf_estimator_desk, load_checkpoint
from cfdistill.transfer import ExperimentResult, TaskSpec, TrainConfig, predict_network
from cfdistill.world import WorldConfig

from conftest import make_tiny_manifest

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def four_regime_manifest():
    """configs/tiny.json with all four regimes, two seeds and 4 epochs everywhere."""
    manifest = json.loads((CONFIGS / "tiny.json").read_text(encoding="utf-8"))
    manifest["estimator"]["epochs"] = 4
    manifest["regimes"] = [
        {"regime": regime, "epochs": 4, "batch_size": 8, "learning_rate": 0.001}
        for regime in ("base", "fix", "init", "kd")
    ]
    manifest["seeds"] = [0, 1]
    return manifest


class TestRunExperiment:
    def test_tiny_pipeline_end_to_end(self, tmp_path, tiny_manifest):
        out = tmp_path / "out"
        results = run_experiment(tiny_manifest, out, deterministic=True)
        assert len(results) == 2  # 1 seed x 2 regimes x 1 fold
        for name in (
            "manifest.json",
            "world/logs.tsv",
            "world/labels.csv",
            "embeddings/item_embeddings.ftab",
            "features/item_00000.ftab",
            "checkpoints/cf_estimator.npz",
            "curves/estimator.csv",
            "folds.json",
            "results.csv",
        ):
            assert (out / name).exists(), name
        rows = read_results_csv(out / "results.csv")
        assert [r["regime"] for r in rows] == ["base", "kd"]
        assert all(r["seconds"] == 0.0 for r in rows)
        assert all(0.0 <= r["metric"] <= 1.0 for r in rows)

    def test_row_count_matches_seeds_times_regimes(self, tmp_path):
        manifest = make_tiny_manifest(seeds=[0, 1])
        results = run_experiment(manifest, tmp_path / "out", deterministic=True)
        assert len(results) == 4

    def test_artifacts_are_reloadable(self, tmp_path, tiny_manifest):
        out = tmp_path / "out"
        run_experiment(tiny_manifest, out, deterministic=True)
        emb = load_embedding(out / "embeddings" / "item_embeddings.ftab")
        assert emb.item_vectors.shape == (36, 40)
        grids = sorted((out / "features").glob("*.ftab"))
        assert [p.stem for p in grids] == [f"item_{i:05d}" for i in range(36)]
        ids, grid, meta = load_float_table(grids[7])
        assert grid.shape == (96, 80)
        assert meta["item_id"] == "item_00007"
        folds = json.loads((out / "folds.json").read_text())
        assert len(folds["task_items"]) == 16
        cell = folds["cells"][0]
        combined = sorted(cell["train"] + cell["val"] + cell["test"])
        assert combined == list(range(16))

    def test_identical_manifests_reproduce_identical_results(self, tmp_path, tiny_manifest):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_manifest, out_a, deterministic=True)
        run_experiment(tiny_manifest, out_b, deterministic=True)
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_stage_failure_names_stage_and_keeps_artifacts(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("estimator diverged")

        monkeypatch.setattr(experiment, "train_cf_estimator", fail)
        out = tmp_path / "out"
        with pytest.raises(StageError, match="stage=estimator: estimator diverged"):
            run_experiment(make_tiny_manifest(), out, deterministic=True)
        assert (out / "world" / "logs.tsv").exists()
        assert (out / "embeddings" / "item_embeddings.ftab").exists()
        assert (out / "features" / "item_00000.ftab").exists()
        assert not (out / "results.csv").exists()

    def test_task_stage_requires_estimator_checkpoint(self, tmp_path, tiny_manifest):
        with pytest.raises(StageError, match="stage=tasks.*estimator checkpoint"):
            run_experiment(
                tiny_manifest, tmp_path / "out", deterministic=True,
                stages=("world", "features", "tasks"),
            )

    def test_unknown_regime_key_fails_before_any_stage(self, tmp_path):
        manifest = make_tiny_manifest()
        manifest["regimes"][1]["patiense"] = 3
        with pytest.raises(ValueError, match=r"unknown manifest key 'regimes\[1\]\.patiense'"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)
        assert not (tmp_path / "out").exists()

    def test_world_task_kind_mismatch_fails_before_any_stage(self, tmp_path):
        manifest = make_tiny_manifest()
        manifest["world"] = dict(manifest["world"], task_kind="regression")
        with pytest.raises(ValueError, match="world.task_kind 'regression' != task.kind"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("world", "n_classes", 3, r"world.n_classes 3 != task.n_classes 4"),
        ("features", "sample_rate", 17000, r"world.sample_rate 16000 != features.sample_rate 17000"),
        ("als", "n_factors", 32, r"als.n_factors 32 != the architecture.preset output width 40"),
        ("world", "duration", 1.0, r"mel grids \(features.n_mels, frames of world.duration\) "
                                   r"\(96, 43\) != the architecture.preset input \(96, 80\)"),
    ], ids=["world.n_classes", "features.sample_rate", "als.n_factors", "world.duration"])
    def test_cross_section_mismatch_fails_before_any_stage(self, tmp_path, section, key, value,
                                                           message):
        manifest = make_tiny_manifest()
        manifest[section] = dict(manifest[section], **{key: value})
        with pytest.raises(ValueError, match=f"^manifest {message}$"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)
        assert not (tmp_path / "out").exists()


class TestTaskCells:
    def test_reloaded_checkpoint_reproduces_its_cell(self, tmp_path):
        """A task checkpoint is the whole task network: its test-split outputs
        give the metric results.csv reports for its cell."""
        manifest = four_regime_manifest()
        manifest["task"] = {"kind": "regression", "name": "tinyreg"}
        manifest["world"]["task_kind"] = "regression"
        manifest["seeds"] = [0]
        out = tmp_path / "out"
        run_experiment(manifest, out, deterministic=True)
        folds = json.loads((out / "folds.json").read_text())
        items = folds["task_items"]
        features = np.stack(
            [load_float_table(out / "features" / f"{i}.ftab")[1][:, :, None] for i in items]
        )
        lines = (out / "world" / "labels.csv").read_text().splitlines()[1:]
        labels = dict(line.split(",") for line in lines)
        targets = np.array([float(labels[i]) for i in items])
        rows = read_results_csv(out / "results.csv")
        assert sorted(r["regime"] for r in rows) == ["base", "fix", "init", "kd"]
        for row in rows:
            cell = f"tinyreg_{row['regime']}_F8_s{row['seed']}_f{row['fold']}"
            split = next(
                c for c in folds["cells"] if (c["seed"], c["fold"]) == (row["seed"], row["fold"])
            )
            model = load_checkpoint(out / "checkpoints" / f"task_{cell}.npz")
            assert model.output_shape == (1,)
            test = np.asarray(split["test"])
            metric = r_squared(predict_network(model, features[test])[:, 0], targets[test])
            assert f"{metric:.6f}" == f"{row['metric']:.6f}", cell

    @pytest.mark.parametrize("kind", ["classification", "regression"])
    def test_kfold_cells_partition_the_task_items(self, tmp_path, kind):
        """folds > 1: per seed, the folds' test sets partition the task items,
        and classes are dealt evenly over the folds."""
        manifest = make_tiny_manifest(seeds=[0, 1], folds=2)
        manifest["world"] = dict(manifest["world"], n_items=60, task_kind=kind)
        if kind == "regression":
            manifest["task"] = {"kind": "regression", "name": "tiny"}
        out = tmp_path / "out"
        run_experiment(manifest, out, deterministic=True)
        folds = json.loads((out / "folds.json").read_text())
        n_task = len(folds["task_items"])
        assert n_task == 40
        lines = (out / "world" / "labels.csv").read_text().splitlines()[1:]
        labels = dict(line.split(",") for line in lines)
        labels = np.array([labels[i] for i in folds["task_items"]])
        for seed in (0, 1):
            cells = [c for c in folds["cells"] if c["seed"] == seed]
            assert [c["fold"] for c in cells] == [0, 1]
            tests = [c["test"] for c in cells]
            assert sorted(sum(tests, [])) == list(range(n_task))
            for c in cells:
                parts = [set(c["train"]), set(c["val"]), set(c["test"])]
                assert all(parts) and sum(map(len, parts)) == len(set.union(*parts))
            if kind == "classification":
                for cls in np.unique(labels):
                    counts = [np.sum(labels[t] == cls) for t in tests]
                    assert max(counts) - min(counts) <= 1
        rows = read_results_csv(out / "results.csv")
        cells = sorted((r["seed"], r["fold"], r["regime"]) for r in rows)
        assert cells == [(s, f, r) for s in (0, 1) for f in (0, 1) for r in ("base", "kd")]

    def test_estimator_forward_over_task_items_runs_once(self, tmp_path, monkeypatch):
        """fix and kd cells share one estimator forward over the task items."""
        manifest = four_regime_manifest()
        n_task_items = manifest["world"]["n_items"] - manifest["split"]["n_estimator_items"]
        real_predict, states = transfer.predict_network, []

        def predict(model, x, *args, **kwargs):
            if len(x) == n_task_items:
                states.append(model.get_state())
            return real_predict(model, x, *args, **kwargs)

        for module in (experiment, transfer):
            monkeypatch.setattr(module, "predict_network", predict)
        out = tmp_path / "out"
        assert len(run_experiment(manifest, out, deterministic=True)) == 8
        estimator = load_checkpoint(out / "checkpoints" / "cf_estimator.npz").get_state()
        forwards = [s for s in states if all(np.array_equal(s[k], v) for k, v in estimator.items())]
        assert len(forwards) == 1


def child_env(**overrides):
    """This process's environment, with ``src`` on ``PYTHONPATH``, for a
    child that runs ``python -m cfdistill.cli``."""
    src = str(Path(cfdistill.__file__).resolve().parents[1])
    paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths), **overrides}


def file_digests(root):
    """sha256 of every file under ``root``, keyed by its path relative to ``root``."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestTrainTaskAlone:
    """The tasks stage reads only the run directory, so ``train-task`` after
    ``train-estimator`` recomputes nothing and writes the bytes ``run`` writes."""

    @pytest.mark.parametrize("four_regimes", [False, True], ids=["tiny", "four_regimes_two_seeds"])
    def test_train_estimator_then_train_task_writes_what_run_writes(
            self, tmp_path, monkeypatch, four_regimes):
        manifest = (four_regime_manifest() if four_regimes
                    else json.loads((CONFIGS / "tiny.json").read_text(encoding="utf-8")))
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        whole, split = tmp_path / "run", tmp_path / "split"
        for command, out in (("run", whole), ("train-estimator", split)):
            assert cli_main([command, str(path), "--out", str(out), "--deterministic"]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("train-task regenerated the world or recomputed a mel grid")

        for module in (cli, experiment, world_module, features_module):
            # write_items hands the mel grids to the pool workers
            for name in ("generate_world", "melspectrogram", "write_items"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert cli_main(["train-task", str(path), "--out", str(split), "--deterministic"]) == 0
        assert file_digests(split) == file_digests(whole)

    def test_train_task_in_a_fresh_process_rewrites_the_task_outputs(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text((CONFIGS / "tiny.json").read_text(encoding="utf-8"), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["run", str(path), "--out", str(out), "--deterministic"]) == 0
        want = file_digests(out)
        task_outputs = [out / "results.csv", out / "folds.json"]
        task_outputs += [p for p in (out / "curves").iterdir() if p.name != "estimator.csv"]
        task_outputs += list((out / "checkpoints").glob("task_*.npz"))
        assert len(task_outputs) == 2 + 2 * 2  # two cells, a curve and a checkpoint each
        for p in task_outputs:
            p.unlink()
        proc = subprocess.run(
            [sys.executable, "-m", "cfdistill.cli", "train-task", str(path),
             "--out", str(out), "--deterministic"],
            env=child_env(), capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        assert file_digests(out) == want


class TestTrainTaskManifest:
    """``train-task`` takes the manifest ``train-estimator`` ran with: one whose
    upstream sections differ fails before it writes anything."""

    def test_edited_split_is_refused_naming_the_key(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        manifest = json.loads((CONFIGS / "tiny.json").read_text(encoding="utf-8"))
        path.write_text(json.dumps(manifest), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["train-estimator", str(path), "--out", str(out), "--deterministic"]) == 0
        before = file_digests(out)
        assert manifest["split"]["n_estimator_items"] == 20
        manifest["split"]["n_estimator_items"] = 16
        path.write_text(json.dumps(manifest), encoding="utf-8")
        capsys.readouterr()
        assert cli_main(["train-task", str(path), "--out", str(out), "--deterministic"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cfdistill: error: ")
        assert "'split.n_estimator_items'" in err and str(out / "manifest.json") in err
        assert file_digests(out) == before

    @pytest.mark.parametrize("section, key, value", [
        ("dtype", None, "float64"),
        ("features", "fmin", 20.0),
        ("world", "seed", 10),
        ("estimator", "patience", 3),  # a key the run's manifest does not set
    ])
    def test_any_upstream_section_counts(self, tmp_path, section, key, value):
        manifest = make_tiny_manifest()
        run_experiment(manifest, tmp_path, stages=("world",))
        if key is None:
            manifest[section] = value
        else:
            manifest[section][key] = value
        with pytest.raises(ValueError, match=f"manifest key '{section}{'.' + key if key else ''}'"):
            run_experiment(manifest, tmp_path, stages=("tasks",))

    def test_regimes_seeds_and_folds_may_change(self, tmp_path):
        manifest = make_tiny_manifest()
        run_experiment(manifest, tmp_path, stages=("world",))
        manifest.update(seeds=[3, 4], folds=2, output_dir="elsewhere")
        manifest["regimes"][0]["epochs"] = 1
        experiment.check_upstream(manifest, tmp_path / "manifest.json")


class TestDatasetMode:
    def _write_dataset(self, root, n_items=12, n_users=8):
        rng = np.random.default_rng(0)
        audio_dir = root / "audio"
        audio_dir.mkdir(parents=True)
        item_ids = [f"song{i:02d}" for i in range(n_items)]
        for item in item_ids:
            write_raw_float32(audio_dir / f"{item}.f32", rng.normal(size=30000) * 0.05, 16000)
        with open(root / "logs.tsv", "w", encoding="utf-8") as fh:
            for u in range(n_users):
                for i, item in enumerate(item_ids):
                    if (u + i) % 2 == 0:
                        fh.write(f"user{u}\t{item}\t{1 + (u + i) % 3}\n")
        with open(root / "labels.csv", "w", encoding="utf-8") as fh:
            fh.write("item_id,label\n")
            for i, item in enumerate(item_ids):
                fh.write(f"{item},{i % 2}\n")
        return {
            "logs": str(root / "logs.tsv"),
            "audio_dir": str(audio_dir),
            "labels": str(root / "labels.csv"),
        }

    def test_user_supplied_dataset_runs(self, tmp_path):
        datasets = self._write_dataset(tmp_path / "data")
        manifest = make_tiny_manifest(datasets=datasets)
        del manifest["world"]
        manifest["task"] = {"kind": "classification", "n_classes": 2, "metric": "accuracy", "name": "user"}
        manifest["split"] = {"n_estimator_items": 6, "val_fraction": 0.2, "test_fraction": 0.25}
        manifest["estimator"]["batch_size"] = 4
        for r in manifest["regimes"]:
            r["batch_size"] = 4
        results = run_experiment(manifest, tmp_path / "out", deterministic=True)
        assert len(results) == 2

    def test_duplicate_label_rejected(self, tmp_path):
        datasets = self._write_dataset(tmp_path / "data")
        with open(datasets["labels"], "a", encoding="utf-8") as fh:
            fh.write("song03,0\n")
        manifest = make_tiny_manifest(datasets=datasets)
        del manifest["world"]
        with pytest.raises(StageError, match="stage=world.*duplicate item id 'song03'"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)

    @pytest.mark.parametrize("line, message", [
        ("song03,0,1", "expected 2 fields, got 3"),
        ("song03", "expected 2 fields, got 1"),
        ("song03,zero", "label 'zero' is not an integer"),
    ])
    def test_malformed_label_line_names_file_and_line(self, tmp_path, line, message):
        datasets = self._write_dataset(tmp_path / "data")
        path = Path(datasets["labels"])
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[4] = line  # line 5 of the file, after the header
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = make_tiny_manifest(datasets=datasets)
        del manifest["world"]
        with pytest.raises(StageError, match=f"stage=world.*labels.csv:5: {message}"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)

    @pytest.mark.parametrize("name, line, lineno", [
        ("labels", b"song03,\xff1", 5),
        ("logs", b"user0\tsong00\t\xff", 3),
    ])
    def test_file_that_is_not_utf8_is_one_error_line_naming_file_and_line(
            self, tmp_path, capsys, name, line, lineno):
        datasets = self._write_dataset(tmp_path / "data")
        path = Path(datasets[name])
        lines = path.read_bytes().splitlines()
        lines[lineno - 1] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        manifest = make_tiny_manifest(datasets=datasets)
        del manifest["world"]
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli_main(["run", str(manifest_path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cfdistill: error: stage=world: {path}:{lineno}: not UTF-8 text")

    def test_class_label_out_of_range_fails_in_world_stage(self, tmp_path):
        datasets = self._write_dataset(tmp_path / "data")
        path = Path(datasets["labels"])
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[4] = "song03,7"  # line 5 of the file, after the header
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = make_tiny_manifest(datasets=datasets)
        del manifest["world"]
        out = tmp_path / "out"
        with pytest.raises(StageError, match=f"^stage=world: {re.escape(str(path))}:5: label '7' "
                                             r"is not a class in \[0, 4\) \(task.n_classes 4\)$"):
            run_experiment(manifest, out, deterministic=True)
        assert not (out / "embeddings").exists()

    def test_missing_dataset_path_fails_in_world_stage(self, tmp_path):
        manifest = make_tiny_manifest(
            datasets={"logs": "/nonexistent", "audio_dir": "/nope", "labels": "/nada"}
        )
        del manifest["world"]
        with pytest.raises(StageError, match="stage=world"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)


class TestStageList:
    """``run_experiment`` checks its stage list before any stage runs."""

    @pytest.mark.parametrize("stages, message", [
        (("world", "bogus"), "unknown stage 'bogus'"),
        (("features", "world"), "stage 'features' needs stage 'world' to run before it"),
        (("als",), "stage 'als' needs stage 'world' to run before it"),
    ])
    def test_bad_stage_list_raises_before_anything_runs(self, tmp_path, stages, message):
        with pytest.raises(ValueError, match=message):
            run_experiment(make_tiny_manifest(), tmp_path / "out", stages=stages)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stage, missing", [
        ("estimator", Path("world") / "labels.csv"),
        ("tasks", Path("checkpoints") / "cf_estimator.npz"),
    ])
    def test_stage_alone_on_empty_directory_names_the_missing_file(self, tmp_path, stage, missing):
        """estimator and tasks read only files, so each may run alone, and
        fails on the first file it finds missing."""
        out = tmp_path / "out"
        with pytest.raises(StageError) as info:
            run_experiment(make_tiny_manifest(), out, deterministic=True, stages=(stage,))
        assert info.value.stage == stage
        assert str(out / missing) in str(info.value)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]

    @pytest.mark.parametrize("command", sorted(MANIFEST_COMMANDS))
    def test_every_manifest_command_stage_list_is_valid(self, command):
        experiment.check_stages(MANIFEST_COMMANDS[command][0])

    def test_train_task_reads_the_estimator_from_its_checkpoint(self):
        assert MANIFEST_COMMANDS["train-task"][0] == ("tasks",)


class TestReadGrids:
    """The estimator and tasks stages read the mel grids straight into the
    manifest's dtype."""

    @pytest.fixture
    def grid_dir(self, tmp_path, tiny_manifest):
        run_experiment(tiny_manifest, tmp_path, stages=("world", "features"))
        lines = (tmp_path / "world" / "labels.csv").read_text(encoding="utf-8").splitlines()
        return tmp_path, [line.split(",")[0] for line in lines[1:]]

    def test_grids_are_the_float64_tables_cast_to_the_manifest_dtype(self, grid_dir,
                                                                    tiny_manifest):
        out, ids = grid_dir
        settings = validate_manifest(tiny_manifest)
        tables = np.stack([load_float_table(out / "features" / f"{i}.ftab")[1] for i in ids])
        for dtype in (settings["train"].dtype, "float64"):
            got = experiment._read_grids(out, ids, settings["input_shape"], dtype)
            want = tables[..., None].astype(dtype)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_a_grid_of_another_shape_is_refused_naming_both_shapes(self, grid_dir,
                                                                    tiny_manifest):
        out, ids = grid_dir
        settings = validate_manifest(tiny_manifest)
        path = out / "features" / f"{ids[3]}.ftab"
        names, grid, meta = load_float_table(path)
        save_float_table(path, names, grid[:, :-1], meta=meta)
        want = tuple(settings["input_shape"][:2])
        message = f"mel grids {grid[:, :-1].shape} do not match architecture input {want}"
        with pytest.raises(ValueError, match=re.escape(message)):
            experiment._read_grids(out, ids, settings["input_shape"], "float32")


class TestManifestValidation:
    def test_valid_manifest_passes(self, tiny_manifest):
        validate_manifest(tiny_manifest)

    def test_wrong_schema_version(self, tiny_manifest):
        tiny_manifest["schema_version"] = 2
        with pytest.raises(ValueError, match="schema_version"):
            validate_manifest(tiny_manifest)

    def test_world_and_datasets_exclusive(self, tiny_manifest):
        tiny_manifest["datasets"] = {}
        with pytest.raises(ValueError, match="exactly one"):
            validate_manifest(tiny_manifest)

    def test_seeds_required(self, tiny_manifest):
        tiny_manifest["seeds"] = []
        with pytest.raises(ValueError, match="seed"):
            validate_manifest(tiny_manifest)

    def test_missing_section(self, tiny_manifest):
        del tiny_manifest["estimator"]
        with pytest.raises(ValueError, match="estimator"):
            validate_manifest(tiny_manifest)

    def test_parse_gives_each_stage_its_objects(self, tiny_manifest):
        del tiny_manifest["task"]["metric"], tiny_manifest["task"]["name"]
        del tiny_manifest["split"]["val_fraction"], tiny_manifest["folds"]
        del tiny_manifest["estimator"]["normalize_targets"], tiny_manifest["features"]
        settings = validate_manifest(tiny_manifest)
        assert settings["task"] == TaskSpec("classification", n_classes=4, metric="accuracy")
        assert settings["task_name"] == "classification"
        assert settings["world"] == WorldConfig(**tiny_manifest["world"])
        assert settings["datasets"] is None
        assert settings["features"] == FeatureConfig()
        assert settings["als"].n_iterations == 4
        specs, input_shape = cf_estimator_desk(8)
        assert (settings["specs"], settings["input_shape"]) == (specs, input_shape)
        assert (settings["preset"], settings["n_channels"]) == ("cf_estimator_desk", 8)
        assert settings["train"] == TrainConfig(
            epochs=2, batch_size=8, learning_rate=0.003, seed=100, dtype="float32"
        )
        assert settings["estimator_val_fraction"] == 0.2
        assert settings["normalize_targets"] is False
        assert settings["split"] == {
            "n_estimator_items": 20, "val_fraction": 0.15, "test_fraction": 0.25
        }
        assert [r.regime for r in settings["regimes"]] == ["base", "kd"]
        assert all(r.dtype == "float32" for r in settings["regimes"])
        assert (settings["seeds"], settings["folds"]) == ([0], 1)

    @pytest.mark.parametrize("key", ["seed", "dtype"])
    def test_regime_may_not_set_seed_or_dtype(self, tiny_manifest, key):
        tiny_manifest["regimes"][0][key] = 123 if key == "seed" else "float64"
        with pytest.raises(ValueError, match=rf"'regimes\[0\]\.{key}'"):
            validate_manifest(tiny_manifest)


# A value of another JSON type for each type a shipped manifest holds.
WRONG_TYPE = {str: 3, int: "3", float: "0.5", bool: "yes", dict: [], list: {}}


def key_paths(node, prefix=()):
    """Every dict key under ``node``, depth first, as a tuple of keys and list indices."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield (*prefix, key)
            yield from key_paths(value, (*prefix, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from key_paths(value, (*prefix, i))


def path_name(path):
    """A key path as errors give it, such as 'regimes[1].kd_weight'."""
    return "".join(
        f"[{p}]" if isinstance(p, int) else f".{p}" if i else p for i, p in enumerate(path)
    )


def misspell(key, rng, taken):
    """``key`` with one character dropped, doubled or swapped with the next,
    differing from every key in ``taken``."""
    while True:
        i = rng.randrange(len(key) - 1)
        new = rng.choice([
            key[:i] + key[i + 1:], key[:i] + key[i] + key[i:], key[:i] + key[i + 1] + key[i] + key[i + 2:],
        ])
        if new not in taken:
            return new


def mutations(manifest, seed):
    """(kind, manifest copy, path of the mutated key) for deleting, misspelling
    and mistyping each key of ``manifest``."""
    rng = random.Random(seed)
    for path in list(key_paths(manifest)):
        for kind in ("delete", "misspell", "wrong_type"):
            mutated = copy.deepcopy(manifest)
            section = mutated
            for part in path[:-1]:
                section = section[part]
            key, named = path[-1], path
            if kind == "delete":
                del section[key]
            elif kind == "misspell":
                new = misspell(key, rng, section)
                section[new] = section.pop(key)
                named = (*path[:-1], new)
            else:
                section[key] = WRONG_TYPE[type(section[key])]
            yield kind, mutated, named


class TestManifestMutationSweep:
    @pytest.mark.parametrize("name", ["tiny.json", "default.json", "control_world.json"])
    def test_every_key_deleted_misspelt_or_mistyped(self, name):
        """Each mutation parses (a deleted key with a default) or raises a
        ValueError that names the key: its path in quotes, or, for a value the
        section's config class rejects, its section and its own name.  A
        deleted key's error always names its full path."""
        manifest = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
        failures, count = [], 0
        for kind, mutated, path in mutations(manifest, seed=8):
            count += 1
            label = path_name(path)
            section = path_name(path[:-1])
            try:
                validate_manifest(mutated)
            except ValueError as exc:
                message = str(exc)
                if f"'{label}'" in message or (
                    kind != "delete" and section and message.startswith(f"manifest {section}: ")
                    and str(path[-1]) in message
                ):
                    continue
                failures.append(f"{kind} {label}: {message}")
            except Exception as exc:  # noqa: BLE001 - any other exception is a failure
                failures.append(f"{kind} {label}: {type(exc).__name__}: {exc}")
            else:
                if kind != "delete":
                    failures.append(f"{kind} {label}: parsed")
        assert count >= 3 * 20
        assert not failures, "\n".join(failures)


class TestResultsSummary:
    def _fixture_rows(self, tmp_path):
        results = [
            ("genre", ExperimentResult("base", 8, 0, 0, 0.5, 3, 1.0)),
            ("genre", ExperimentResult("base", 8, 1, 0, 0.7, 3, 1.0)),
            ("genre", ExperimentResult("kd", 8, 0, 0, 0.6, 3, 1.0)),
            ("genre", ExperimentResult("kd", 8, 1, 0, 0.9, 3, 1.0)),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, results)
        return read_results_csv(path)

    def test_means_match_hand_computation(self, tmp_path):
        summary = summarize_results(self._fixture_rows(tmp_path))
        assert summary["means"]["base"] == pytest.approx(0.6)
        assert summary["means"]["kd"] == pytest.approx(0.75)

    def test_paired_test_matches_hand_computation(self, tmp_path):
        # diffs 0.1 and 0.2: mean 0.15, sd 0.0707..., t = 3.0, df = 1
        summary = summarize_results(self._fixture_rows(tmp_path))
        test = summary["tests"]["kd"]
        assert test["mean_diff"] == pytest.approx(0.15)
        assert test["t"] == pytest.approx(3.0, rel=1e-9)
        p_oracle = 1.0 - 2.0 * np.arctan(3.0) / np.pi  # closed form for df=1
        assert test["p"] == pytest.approx(p_oracle, rel=1e-9)

    def test_single_pair_reports_none(self, tmp_path):
        results = [
            ("genre", ExperimentResult("base", 8, 0, 0, 0.5, 3, 1.0)),
            ("genre", ExperimentResult("kd", 8, 0, 0, 0.6, 3, 1.0)),
        ]
        path = tmp_path / "r.csv"
        write_results_csv(path, results)
        summary = summarize_results(read_results_csv(path))
        assert summary["tests"]["kd"] is None


class TestBlasThreadInvariance:
    def test_outputs_identical_with_one_and_default_blas_threads(self, tmp_path):
        """``run --deterministic`` writes the same bytes whatever the BLAS thread count.

        One child pins OpenBLAS/OpenMP to one thread through its own
        environment; the other inherits this process's environment.
        """
        manifest = four_regime_manifest()
        path = tmp_path / "four.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        inherited = child_env()
        pinned = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        outs = {}
        for name, env in (("pinned", pinned), ("inherited", inherited)):
            outs[name] = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "cfdistill.cli", "run", str(path),
                 "--out", str(outs[name]), "--deterministic"],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr

        def files(root):
            paths = [root / "results.csv"]
            paths += sorted((root / "curves").glob("*.csv"))
            paths += sorted((root / "checkpoints").glob("*.npz"))
            return {str(p.relative_to(root)): p.read_bytes() for p in paths}

        pinned_files, inherited_files = files(outs["pinned"]), files(outs["inherited"])
        assert len(pinned_files) == 1 + 9 + 9  # estimator + 8 cells, curves and checkpoints
        assert sorted(pinned_files) == sorted(inherited_files)
        for name, data in pinned_files.items():
            assert data == inherited_files[name], f"{name} differs between thread counts"
