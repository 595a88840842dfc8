"""Command-line interface: subcommands, exit codes, error format."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfdistill
from cfdistill.als import load_embedding, item_vector
from cfdistill.cli import main
from cfdistill.experiment import load_manifest, validate_manifest, write_results_csv
from cfdistill.fileio import load_float_table, write_raw_float32, write_wav
from cfdistill.transfer import ExperimentResult

from conftest import make_tiny_manifest


def write_manifest(tmp_path, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    return path


def manifest_with(path, value):
    """The tiny manifest with the key at ``path`` (such as 'regimes[1].kd_weight')
    set to ``value``; a ``datasets`` path gets a manifest that reads datasets."""
    manifest = make_tiny_manifest()
    if path.startswith("datasets."):
        del manifest["world"]
        manifest["datasets"] = {"logs": "logs.tsv", "audio_dir": "audio", "labels": "labels.csv"}
    *parents, key = path.replace("]", "").replace("[", ".").split(".")
    section = manifest
    for part in parents:
        section = section[int(part) if part.isdigit() else part]
    section[key] = value
    return manifest


# (key path, value, part of the error) for values the manifest parse rejects
BAD_VALUES = [
    ("als.n_factors", 0, "manifest als: n_factors must be >= 1"),
    ("regimes[1].kd_weight", -1, "manifest regimes[1]: kd_weight must be nonnegative"),
    ("world.task_kind", "regression", "world.task_kind 'regression' != task.kind"),
    ("architecture.n_channels", 0, "architecture: conv2d layer 'out_channels'"),
    ("architecture.include_fifth_block", False, "unexpected keyword argument"),
    ("task.metric", "r_squared", "manifest task: classification tasks use"),
    ("folds", 0, "folds must be a positive int"),
    ("estimator.batch_size", 0, "manifest estimator: batch_size must be >= 2"),
    ("regimes[0].epochs", -1, "manifest regimes[0]: epochs must be >= 0"),
    ("estimator.learning_rate", 0, "manifest estimator: learning_rate must be > 0"),
    ("regimes[1].patience", 0, "manifest regimes[1]: patience must be >= 1"),
]

# (key path, value, part of the error) for values of the wrong JSON type, or
# a string outside the values its key takes
BAD_TYPES = [
    ("dtype", "banana", "manifest key 'dtype' must be 'float32' or 'float64', got 'banana'"),
    ("dtype", "int64", "manifest key 'dtype' must be 'float32' or 'float64', got 'int64'"),
    ("als.n_factors", 4.5, "manifest key 'als.n_factors' must be int, got float 4.5"),
    ("seeds", 7, "manifest key 'seeds' must be list, got int 7"),
    ("estimator.normalize_targets", "no",
     "manifest key 'estimator.normalize_targets' must be bool, got str 'no'"),
    ("estimator.epochs", "5", "manifest key 'estimator.epochs' must be int, got str '5'"),
    ("features.n_mels", "96", "manifest key 'features.n_mels' must be int, got str '96'"),
    ("regimes[0].kd_weight", "1", "manifest key 'regimes[0].kd_weight' must be float, got str"),
    ("regimes[0].epochs", True, "manifest key 'regimes[0].epochs' must be int, got bool True"),
    ("estimator.patience", 2.5, "manifest key 'estimator.patience' must be int or null"),
    ("world.task_kind", 1, "manifest key 'world.task_kind' must be str, got int 1"),
    ("architecture.n_channels", "8", "manifest key 'architecture.n_channels' must be int"),
    ("split.val_fraction", "0.1", "manifest key 'split.val_fraction' must be float"),
    ("task.name", 3, "manifest key 'task.name' must be str or null, got int 3"),
    ("datasets.logs", 3, "manifest key 'datasets.logs' must be str, got int 3"),
    ("schema_version", True, "manifest key 'schema_version' must be int, got bool True"),
    ("folds", 1.0, "manifest key 'folds' must be int, got float 1.0"),
    ("regimes", {"regime": "base"}, "manifest key 'regimes' must be list, got dict"),
    ("seeds", [], "manifest seeds must be a non-empty list of distinct ints, got []"),
    ("seeds", [0, 0], "manifest seeds must be a non-empty list of distinct ints, got [0, 0]"),
    ("seeds", [0, "1"], "manifest key 'seeds[1]' must be int, got str '1'"),
]


def assert_rejected_before_any_stage(tmp_path, capsys, manifest):
    """``run`` exits 1 with one error line and creates no output directory;
    returns the error line."""
    out = tmp_path / "o"
    assert main(["run", str(write_manifest(tmp_path, manifest)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cfdistill: error:") and err.count("\n") == 1
    assert not out.exists()
    return err


class TestGenerateWorld:
    def test_writes_world_files(self, tmp_path, capsys):
        config = tmp_path / "world.json"
        config.write_text(json.dumps({"n_users": 10, "n_items": 12, "seed": 1}))
        out = tmp_path / "world"
        assert main(["generate-world", str(config), str(out)]) == 0
        assert (out / "logs.tsv").exists()
        assert (out / "labels.csv").exists()
        assert len(list((out / "audio").glob("*.f32"))) == 12
        assert "12 items" in capsys.readouterr().out

    def test_unknown_world_key_is_single_line_error(self, tmp_path, capsys):
        config = tmp_path / "world.json"
        config.write_text(json.dumps({"n_users": 10, "n_itemz": 12}))
        assert main(["generate-world", str(config), str(tmp_path / "world")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1
        assert "'n_itemz'" in err

    def test_wrong_world_value_type_is_single_line_error(self, tmp_path, capsys):
        config = tmp_path / "world.json"
        config.write_text(json.dumps({"n_users": 10, "n_items": "12"}))
        assert main(["generate-world", str(config), str(tmp_path / "world")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1
        assert "world key 'n_items' must be int, got str '12'" in err
        assert not (tmp_path / "world").exists()

    def test_seed_override(self, tmp_path):
        config = tmp_path / "world.json"
        config.write_text(json.dumps({"n_users": 10, "n_items": 12, "seed": 1}))
        main(["generate-world", str(config), str(tmp_path / "a")])
        main(["generate-world", str(config), str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "logs.tsv").read_text()
        b = (tmp_path / "b" / "logs.tsv").read_text()
        assert a != b

    def test_world_files_equal_those_a_run_writes(self, tmp_path):
        """``generate-world`` and ``run`` write the same world directory, audio
        included, though a run writes the audio in its features pass."""
        manifest = write_manifest(tmp_path, make_tiny_manifest())
        assert main(["run", str(manifest), "--out", str(tmp_path / "run"), "--deterministic"]) == 0
        assert main(["generate-world", str(manifest), str(tmp_path / "world")]) == 0

        def files(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        written, generated = files(tmp_path / "run" / "world"), files(tmp_path / "world")
        assert len([name for name in generated if name.endswith(".f32")]) == 36
        assert sorted(written) == sorted(generated)
        for name, data in generated.items():
            assert written[name] == data, name


class TestAlsFit:
    def test_three_line_log_round_trip(self, tmp_path):
        logs = tmp_path / "logs.tsv"
        logs.write_text("u1\ti1\nu1\ti2\t3\nu2\ti1\n", encoding="utf-8")
        out = tmp_path / "emb.ftab"
        assert main(["als-fit", str(logs), str(out), "--seed", "5"]) == 0
        emb = load_embedding(out)
        assert item_vector(emb, "i1").shape == (40,)
        assert item_vector(emb, "i2").shape == (40,)

    def test_config_override(self, tmp_path):
        logs = tmp_path / "logs.tsv"
        logs.write_text("u1\ti1\nu2\ti2\n", encoding="utf-8")
        cfg = tmp_path / "als.json"
        cfg.write_text(json.dumps({"n_factors": 6, "n_iterations": 2}))
        out = tmp_path / "emb.ftab"
        assert main(["als-fit", str(logs), str(out), "--config", str(cfg)]) == 0
        emb = load_embedding(out)
        assert emb.n_factors == 6

    def test_unknown_config_key_is_single_line_error(self, tmp_path, capsys):
        logs = tmp_path / "logs.tsv"
        logs.write_text("u1\ti1\nu2\ti2\n", encoding="utf-8")
        cfg = tmp_path / "als.json"
        cfg.write_text(json.dumps({"n_factors": 6, "reg_lamda": 0.5}))
        code = main(["als-fit", str(logs), str(tmp_path / "o.ftab"), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1
        assert "'reg_lamda'" in err

    def test_missing_file_is_single_line_error(self, tmp_path, capsys):
        code = main(["als-fit", str(tmp_path / "nope.tsv"), str(tmp_path / "o.ftab")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:")
        assert err.count("\n") == 1


class TestFeatures:
    def test_extracts_and_indexes(self, tmp_path):
        audio = tmp_path / "audio"
        audio.mkdir()
        rng = np.random.default_rng(0)
        for name in ("a", "b"):
            write_wav(audio / f"{name}.wav", rng.normal(size=30000) * 0.05, 16000)
        out = tmp_path / "cache"
        assert main(["features", str(audio), str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["a.ftab", "b.ftab"]
        _, grid, meta = load_float_table(out / "a.ftab")
        assert grid.shape == (96, 80)
        assert meta["item_id"] == "a"

    def test_duplicate_item_id_rejected(self, tmp_path, capsys):
        audio = tmp_path / "audio"
        audio.mkdir()
        write_wav(audio / "a.wav", np.zeros(30000), 16000)
        write_raw_float32(audio / "a.f32", np.zeros(30000), 16000)
        assert main(["features", str(audio), str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1
        assert "item id 'a'" in err

    def test_wrong_sample_rate_rejected(self, tmp_path, capsys):
        audio = tmp_path / "audio"
        audio.mkdir()
        write_wav(audio / "x.wav", np.zeros(1000), 22050)
        assert main(["features", str(audio), str(tmp_path / "out")]) == 1
        assert "sample rate" in capsys.readouterr().err


class TestManifestCommands:
    def test_run_writes_results(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, make_tiny_manifest())
        out = tmp_path / "out"
        assert main(["run", str(manifest), "--out", str(out), "--deterministic"]) == 0
        assert (out / "results.csv").exists()
        assert "2 result rows" in capsys.readouterr().out

    def test_train_estimator_then_task(self, tmp_path):
        manifest = write_manifest(tmp_path, make_tiny_manifest())
        out = tmp_path / "out"
        assert main(["train-estimator", str(manifest), "--out", str(out), "--deterministic"]) == 0
        assert (out / "checkpoints" / "cf_estimator.npz").exists()
        assert main(["train-task", str(manifest), "--out", str(out), "--deterministic"]) == 0
        assert (out / "results.csv").exists()

    def test_train_task_without_estimator_fails_with_stage(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, make_tiny_manifest())
        code = main(["train-task", str(manifest), "--out", str(tmp_path / "out"), "--deterministic"])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage=tasks" in err and err.count("\n") == 1

    def test_output_dir_from_manifest(self, tmp_path):
        m = make_tiny_manifest(output_dir=str(tmp_path / "from_manifest"))
        manifest = write_manifest(tmp_path, m)
        assert main(["run", str(manifest), "--deterministic"]) == 0
        assert (tmp_path / "from_manifest" / "results.csv").exists()

    def test_missing_output_dir_is_error(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, make_tiny_manifest())
        assert main(["run", str(manifest)]) == 1
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "train-estimator", "train-task"])
    def test_list_manifest_is_single_line_error(self, tmp_path, capsys, command):
        manifest = write_manifest(tmp_path, [make_tiny_manifest()])
        assert main([command, str(manifest), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1
        assert "JSON object, got list" in err

    def test_invalid_manifest_is_single_line_error(self, tmp_path, capsys):
        manifest = write_manifest(tmp_path, {"schema_version": 99})
        assert main(["run", str(manifest), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "train-estimator"])
    def test_unknown_estimator_key_is_single_line_error(self, tmp_path, capsys, command):
        m = make_tiny_manifest()
        m["estimator"]["patiense"] = 1
        out = tmp_path / "o"
        assert main([command, str(write_manifest(tmp_path, m)), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cfdistill: error:") and err.count("\n") == 1
        assert "'estimator.patiense'" in err
        assert not out.exists()  # rejected before any stage ran

    @pytest.mark.parametrize(
        "path",
        [
            "architecture.n_chanels", "task.n_clases", "split.val_fration", "fold",
            "world.n_user", "als.n_factor", "features.n_mel", "regimes[1].kd_wieght",
            "regimes[0].seed", "datasets.label",
        ],
    )
    def test_unknown_section_key_is_single_line_error(self, tmp_path, capsys, path):
        err = assert_rejected_before_any_stage(tmp_path, capsys, manifest_with(path, 1))
        assert f"'{path}'" in err

    @pytest.mark.parametrize(
        "path, value, message", BAD_VALUES, ids=[path for path, _, _ in BAD_VALUES]
    )
    def test_bad_manifest_value_is_single_line_error(self, tmp_path, capsys, path, value, message):
        err = assert_rejected_before_any_stage(tmp_path, capsys, manifest_with(path, value))
        assert message in err

    def test_schedule_that_does_not_fit_is_single_line_error(self, tmp_path, capsys):
        # 4 channels pass LayerSpec's own checks; only the shape walk sees the SE ratio
        manifest = manifest_with("architecture.n_channels", 4)
        err = assert_rejected_before_any_stage(tmp_path, capsys, manifest)
        assert "manifest architecture: se_block ratio 8 does not divide 4 channels" in err

    @pytest.mark.parametrize(
        "path, value, message", BAD_TYPES,
        ids=[f"{path}={json.dumps(value)}" for path, value, _ in BAD_TYPES],
    )
    def test_wrong_value_type_is_single_line_error(self, tmp_path, capsys, path, value, message):
        err = assert_rejected_before_any_stage(tmp_path, capsys, manifest_with(path, value))
        assert message in err

    @pytest.mark.parametrize(
        "path, value",
        [("regimes[0].kd_weight", 1), ("split.val_fraction", 0), ("estimator.patience", None),
         ("architecture.include_fifth_block", None), ("world.band_low", 400)],
    )
    def test_int_as_float_and_null_as_optional_accepted(self, path, value):
        parsed = validate_manifest(manifest_with(path, value))
        if path == "regimes[0].kd_weight":
            assert parsed["regimes"][0].kd_weight == 1.0

    @pytest.mark.parametrize("name", ["tiny.json", "default.json", "control_world.json"])
    def test_shipped_manifests_validate(self, name):
        load_manifest(Path(__file__).resolve().parent.parent / "configs" / name)


class TestEvaluate:
    def _results_file(self, tmp_path):
        rows = [
            ("genre", ExperimentResult("base", 8, 0, 0, "accuracy", 0.5, 3, 0.0)),
            ("genre", ExperimentResult("base", 8, 1, 0, "accuracy", 0.7, 3, 0.0)),
            ("genre", ExperimentResult("kd", 8, 0, 0, "accuracy", 0.6, 3, 0.0)),
            ("genre", ExperimentResult("kd", 8, 1, 0, "accuracy", 0.9, 3, 0.0)),
        ]
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        return path

    def test_prints_means_and_t_test(self, tmp_path, capsys):
        path = self._results_file(tmp_path)
        assert main(["evaluate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mean base: 0.600000" in out
        assert "mean kd: 0.750000" in out
        assert "t=3.0000" in out
        assert "mean_diff=+0.150000" in out

    def test_missing_results_file(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "none.csv")]) == 1
        assert capsys.readouterr().err.startswith("cfdistill: error:")


class TestUsage:
    def test_unknown_subcommand_exits_nonzero_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @staticmethod
    def _evaluate_in_child(tmp_path, module):
        rows = [("genre", ExperimentResult("base", 8, 0, 0, "accuracy", 0.5, 3, 0.0)),
                ("genre", ExperimentResult("base", 8, 1, 0, "accuracy", 0.6, 3, 0.0))]
        path = tmp_path / "results.csv"
        write_results_csv(path, rows)
        # run from the directory holding the package under test, so the
        # child imports the same source tree even when it is not installed
        proc = subprocess.run(
            [sys.executable, "-m", module, "evaluate", str(path)],
            capture_output=True, text=True, cwd=Path(cfdistill.__file__).parents[1],
        )
        assert proc.returncode == 0
        assert "mean base" in proc.stdout

    def test_console_script_entry_point(self, tmp_path):
        self._evaluate_in_child(tmp_path, "cfdistill.cli")

    def test_python_m_package_entry_point(self, tmp_path):
        self._evaluate_in_child(tmp_path, "cfdistill")
