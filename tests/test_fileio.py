"""Round trips of the shared file formats, and atomic writes."""

import errno
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from cfdistill import fileio
from cfdistill.experiment import write_results_csv, write_world
from cfdistill.fileio import (
    list_audio_files,
    load_float_table,
    read_audio,
    read_raw_float32,
    read_wav,
    save_float_table,
    write_raw_float32,
)
from cfdistill.nn.network import LayerSpec, build_network, save_checkpoint
from cfdistill.transfer import ExperimentResult
from cfdistill.world import WorldConfig, generate_world

from conftest import write_wav


class TestFloatTable:
    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(7, 5))
        ids = [f"row{i}" for i in range(7)]
        path = tmp_path / "table.ftab"
        save_float_table(path, ids, matrix, meta={"kind": "test"})
        got_ids, got_matrix, meta = load_float_table(path)
        assert got_ids == ids
        assert meta["kind"] == "test"
        np.testing.assert_array_equal(got_matrix, matrix)

    def test_random_instances_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        for trial in range(5):
            n, m = int(rng.integers(1, 20)), int(rng.integers(1, 20))
            matrix = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 8)
            path = tmp_path / f"t{trial}.ftab"
            save_float_table(path, [str(i) for i in range(n)], matrix)
            _, got, _ = load_float_table(path)
            np.testing.assert_array_equal(got, matrix)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ftab"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_float_table(path)

    def test_id_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="id count"):
            save_float_table(tmp_path / "x.ftab", ["a"], np.zeros((2, 2)))

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.ftab"
        save_float_table(path, ["a", "b"], np.ones((2, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_float_table(path)

    @pytest.mark.parametrize("extra", range(1, 9))
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "t.ftab"
        save_float_table(path, ["a", "b"], np.ones((2, 3)))
        path.write_bytes(path.read_bytes() + b"\x00" * extra)
        with pytest.raises(ValueError, match=f"t.ftab: {extra} bytes after the float table"):
            load_float_table(path)

    def test_every_cut_raises_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "cut.ftab"
        save_float_table(path, ["a", "b"], np.ones((2, 3)), meta={"kind": "cut at every length"})
        data = path.read_bytes()
        for size in range(len(data)):
            path.write_bytes(data[:size])
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load_float_table(path)

    @pytest.mark.parametrize("header, message", [
        (b'{"n_cols": 3, "ids": ["a", "b"]}', "KeyError\\('n_rows'\\)"),
        (b'{"n_rows": 2, "n_cols": 3, "ids": ["a"]}', "n_rows 2, n_cols 3, 1 ids"),
        (b'{"n_rows": "2", "n_cols": 3, "ids": ["a", "b"]}', "n_rows '2'"),
        (b'{"n_rows": true, "n_cols": 3, "ids": ["a"]}', "n_rows True"),
        (b'{"n_rows": 2, "n_cols": 3, "ids": "ab"}', "str ids"),
        (b'[2, 3]', "TypeError"),
        (b'{"n_rows": 2,', "JSONDecodeError"),
        (b'{"\xff": 2}', "UnicodeDecodeError"),
    ])
    def test_bad_header_raises_value_error_naming_the_file(self, tmp_path, header, message):
        path = tmp_path / "h.ftab"
        version = struct.pack("<II", fileio.FTAB_VERSION, len(header))
        path.write_bytes(fileio.FTAB_MAGIC + version + header + b"\x00" * 48)
        pattern = f"^{re.escape(str(path))}: bad float table header: .*{message}"
        with pytest.raises(ValueError, match=pattern):
            load_float_table(path)


class TestWav:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = rng.uniform(-0.9, 0.9, size=4000)
        path = tmp_path / "a.wav"
        write_wav(path, samples, 16000)
        got, rate = read_wav(path, expect_rate=16000)
        assert rate == 16000
        assert np.max(np.abs(got - samples)) <= 1.0 / 32768.0

    def test_wrong_rate_rejected(self, tmp_path):
        path = tmp_path / "b.wav"
        write_wav(path, np.zeros(100), 22050)
        with pytest.raises(ValueError, match="sample rate"):
            read_wav(path, expect_rate=16000)


def _wav_bytes(tmp_path):
    path = tmp_path / "whole.wav"
    write_wav(path, np.linspace(-0.5, 0.5, 1000), 16000)
    return path.read_bytes()


class TestDamagedWav:
    """A WAV the reader cannot take raises ValueError naming the file."""

    @pytest.mark.parametrize("size", [0, 10, 30, 43, 44, 100, 2043])
    def test_truncated(self, tmp_path, size):
        path = tmp_path / "cut.wav"
        path.write_bytes(_wav_bytes(tmp_path)[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a readable WAV file"):
            read_wav(path)

    @pytest.mark.parametrize("offset, value", [
        (0, b"RIFX"),  # byte order mark: big-endian, so the format tag reads wrong
        (0, b"JUNK"),  # not a RIFF file
        (8, b"WAVF"),  # form type
        (12, b"fmt_"),  # no fmt chunk before the data
        (16, b"\xc8\x00\x00\x00"),  # fmt chunk size runs past the end of the file
        (20, b"\x09\x00"),  # format tag
    ])
    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_header_flip(self, tmp_path, offset, value):
        data = bytearray(_wav_bytes(tmp_path))
        data[offset:offset + len(value)] = value
        path = tmp_path / "flipped.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            read_wav(path)

    @pytest.mark.parametrize("data, message", [
        (np.zeros(100, np.float32), "expected 16-bit PCM, got dtype float32"),
        (np.zeros(100, np.uint8), "expected 16-bit PCM, got dtype uint8"),
        (np.zeros((100, 2), np.int16), "expected mono audio, got 2 channels"),
    ])
    def test_wrong_format(self, tmp_path, data, message):
        path = tmp_path / "other.wav"
        wavfile.write(path, 16000, data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_wav(path)

    @pytest.mark.parametrize("offset, value, message", [
        (34, struct.pack("<H", 12), "expected 16-bit PCM, got dtype int16 from 12 bits per sample"),
        (40, struct.pack("<I", 0x7FFFFFFF), "not a readable WAV file: b'data' chunk of 2147483647"),
    ])
    def test_header_the_writer_never_writes(self, tmp_path, offset, value, message):
        data = bytearray(_wav_bytes(tmp_path))
        data[offset:offset + len(value)] = value
        path = tmp_path / "odd.wav"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            read_wav(path)

    @pytest.mark.parametrize("extra", range(1, 9))
    def test_trailing_bytes(self, tmp_path, extra):
        path = tmp_path / "long.wav"
        path.write_bytes(_wav_bytes(tmp_path) + b"\x00" * extra)
        message = f"not a readable WAV file: RIFF header says 2044 bytes, file has {2044 + extra}"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_wav(path)

    def test_wav_that_is_whole_still_reads(self, tmp_path):
        path = tmp_path / "whole.wav"
        path.write_bytes(_wav_bytes(tmp_path))
        assert read_wav(path)[0].shape == (1000,)


class TestRawFloat32:
    def test_round_trip(self, tmp_path):
        samples = np.random.default_rng(3).normal(size=3000).astype(np.float32)
        path = tmp_path / "c.f32"
        write_raw_float32(path, samples, 16000)
        got, rate = read_raw_float32(path)
        assert rate == 16000
        np.testing.assert_array_equal(got, samples.astype(np.float64))

    def test_sidecar_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "d.f32"
        write_raw_float32(path, np.zeros(100), 16000)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 4)
        with pytest.raises(ValueError, match="sidecar"):
            read_raw_float32(path)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        path = tmp_path / "e.f32"
        write_raw_float32(path, np.zeros(100), 16000)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * extra)
        with pytest.raises(ValueError, match=f"e.f32: sidecar says 100 samples .* {400 + extra} bytes"):
            read_raw_float32(path)

    @pytest.mark.parametrize("text, message", [
        ('{"length": 100}', "sidecar must be a JSON object with int 'sample_rate' and 'length'"),
        ('{"sample_rate": 16000}', "sidecar must be a JSON object with int 'sample_rate' and 'length'"),
        ("[16000, 100]", r"sidecar must be a JSON object .*, got \[16000, 100\]"),
        ("sample_rate=16000", "sidecar is not JSON"),
    ])
    def test_malformed_sidecar_rejected(self, tmp_path, text, message):
        path = tmp_path / "g.f32"
        write_raw_float32(path, np.zeros(100), 16000)
        Path(f"{path}.json").write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"g.f32.json: {message}"):
            read_raw_float32(path)


    @pytest.mark.parametrize("suffix", ["", "\n\n", "\n ", " \n"])
    def test_sidecar_must_be_one_line(self, tmp_path, suffix):
        path = tmp_path / "h.f32"
        write_raw_float32(path, np.zeros(100), 16000)
        sidecar = Path(f"{path}.json")
        assert sidecar.read_text(encoding="utf-8") == '{"sample_rate": 16000, "length": 100}\n'
        sidecar.write_text('{"sample_rate": 16000, "length": 100}' + suffix, encoding="utf-8")
        if suffix == " \n":  # spaces inside the line are JSON's business
            assert read_raw_float32(path)[1] == 16000
            return
        with pytest.raises(ValueError, match="h.f32.json: sidecar must be one line"):
            read_raw_float32(path)


class TestAudioDirectory:
    def test_lists_and_reads_both_formats(self, tmp_path):
        write_wav(tmp_path / "x.wav", np.zeros(100), 16000)
        write_raw_float32(tmp_path / "y.f32", np.zeros(50), 16000)
        files = list_audio_files(tmp_path)
        assert [f.name for f in files] == ["x.wav", "y.f32"]
        for f in files:
            samples, rate = read_audio(f, expect_rate=16000)
            assert rate == 16000

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no .wav"):
            list_audio_files(tmp_path)

    def test_shared_stem_rejected(self, tmp_path):
        # a.wav and a.f32 would both be item "a"; a.g.wav sorts between them
        write_wav(tmp_path / "a.wav", np.zeros(100), 16000)
        write_wav(tmp_path / "a.g.wav", np.zeros(100), 16000)
        write_raw_float32(tmp_path / "a.f32", np.zeros(50), 16000)
        with pytest.raises(ValueError, match="a.f32 and a.wav share the item id 'a'"):
            list_audio_files(tmp_path)


class _FullDisk:
    """A file that takes ``budget`` more characters, then fails as a full disk does."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        if len(data) > self.budget:
            self.fh.write(data[: self.budget])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")
        self.budget -= len(data)
        return self.fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _table(path, version):
    save_float_table(path, ["a", "b"], np.full((2, 64), float(version)))


def _audio(path, version):
    write_raw_float32(path, np.full(500, 0.1 * version), 16000 * version)


def _checkpoint(path, version):
    model = build_network([LayerSpec("fully_connected", width=16)], (32,), seed=version)
    save_checkpoint(model, path, extra={"version": version})


def _results(path, version):
    rows = [("t", ExperimentResult("base", 8, s, 0, 0.5, version, 1.0))
            for s in range(20)]
    write_results_csv(path, rows)


WRITERS = {"float_table": (_table, "x.ftab"), "raw_float32": (_audio, "x.f32"),
           "checkpoint": (_checkpoint, "x.npz"), "results_csv": (_results, "results.csv")}


@pytest.mark.parametrize("writer", WRITERS)
class TestAtomicWrites:
    """A write that fails part way leaves the target as it was (absent, or
    the previous complete file) and no temp file beside it."""

    def _fail_after(self, monkeypatch, budget):
        monkeypatch.setattr(
            fileio, "open", lambda *a, **k: _FullDisk(open(*a, **k), budget), raising=False
        )

    @pytest.mark.parametrize("budget", [0, 40])
    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch, writer, budget):
        write, name = WRITERS[writer]
        self._fail_after(monkeypatch, budget)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path / name, 1)
        assert os.listdir(tmp_path) == []

    def test_failed_rewrite_keeps_the_previous_file(self, tmp_path, monkeypatch, writer):
        write, name = WRITERS[writer]
        write(tmp_path / name, 1)
        before = {p: (tmp_path / p).read_bytes() for p in os.listdir(tmp_path)}
        write(tmp_path / "fresh" / name, 2)
        assert (tmp_path / "fresh" / name).read_bytes() != before[name]
        self._fail_after(monkeypatch, 40)
        with pytest.raises(OSError, match="No space left"):
            write(tmp_path / name, 2)
        after = {p: (tmp_path / p).read_bytes() for p in os.listdir(tmp_path) if p != "fresh"}
        assert after == before


@pytest.mark.parametrize("target", ["logs.tsv", "labels.csv"])
def test_write_world_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, target):
    """``write_world`` writes its text files atomically too: a rewrite that
    fails part way through ``target`` leaves the previous ``target`` and no
    temp file."""
    config = WorldConfig(n_users=8, n_items=5, seed=1, duration=0.125)
    write_world(generate_world(config), tmp_path, audio=False)
    before = (tmp_path / target).read_bytes()
    assert len(before) > 40
    real_open = open

    def open_failing_target(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _FullDisk(fh, 40) if Path(path).name.startswith(f".{target}.") else fh

    monkeypatch.setattr(fileio, "open", open_failing_target, raising=False)
    second = generate_world(WorldConfig(n_users=8, n_items=5, seed=2, duration=0.125))
    with pytest.raises(OSError, match="No space left"):
        write_world(second, tmp_path, audio=False)
    assert (tmp_path / target).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["labels.csv", "latents.ftab", "logs.tsv"]
