"""Orchestration: stages, artifacts, failure policy, results files."""

import json
from pathlib import Path

import numpy as np
import pytest

from cfdistill.als import load_embedding
from cfdistill.experiment import (
    StageError,
    read_results_csv,
    run_experiment,
    summarize_results,
    validate_manifest,
    write_results_csv,
)
from cfdistill.fileio import load_float_table, write_raw_float32
from cfdistill.transfer import ExperimentResult

from conftest import make_tiny_manifest


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

    def test_stage_failure_names_stage_and_keeps_artifacts(self, tmp_path):
        # 1.25 s audio gives 54-frame grids, which the desk architecture rejects
        manifest = make_tiny_manifest()
        manifest["world"] = dict(manifest["world"], duration=1.25)
        out = tmp_path / "out"
        with pytest.raises(StageError, match="stage=estimator"):
            run_experiment(manifest, out, deterministic=True)
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

    def test_unknown_regime_key_fails_in_tasks_stage(self, tmp_path):
        manifest = make_tiny_manifest()
        manifest["regimes"][1]["patiense"] = 3
        with pytest.raises(StageError, match="stage=tasks: unknown regime key 'patiense'"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)

    def test_world_task_kind_mismatch_fails_in_world_stage(self, tmp_path):
        manifest = make_tiny_manifest()
        manifest["world"] = dict(manifest["world"], task_kind="regression")
        with pytest.raises(StageError, match="stage=world"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)


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

    def test_missing_dataset_path_fails_in_world_stage(self, tmp_path):
        manifest = make_tiny_manifest(
            datasets={"logs": "/nonexistent", "audio_dir": "/nope", "labels": "/nada"}
        )
        del manifest["world"]
        with pytest.raises(StageError, match="stage=world"):
            run_experiment(manifest, tmp_path / "out", deterministic=True)


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


class TestResultsSummary:
    def _fixture_rows(self, tmp_path):
        results = [
            ("genre", ExperimentResult("base", 8, 0, 0, "accuracy", 0.5, 3, 1.0)),
            ("genre", ExperimentResult("base", 8, 1, 0, "accuracy", 0.7, 3, 1.0)),
            ("genre", ExperimentResult("kd", 8, 0, 0, "accuracy", 0.6, 3, 1.0)),
            ("genre", ExperimentResult("kd", 8, 1, 0, "accuracy", 0.9, 3, 1.0)),
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
            ("genre", ExperimentResult("base", 8, 0, 0, "accuracy", 0.5, 3, 1.0)),
            ("genre", ExperimentResult("kd", 8, 0, 0, "accuracy", 0.6, 3, 1.0)),
        ]
        path = tmp_path / "r.csv"
        write_results_csv(path, results)
        summary = summarize_results(read_results_csv(path))
        assert summary["tests"]["kd"] is None
