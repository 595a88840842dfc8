"""File formats shared across the pipeline.

Three formats live here:

* the "float table" container used for embedding tables and cached
  mel grids (see README for the byte layout),
* mono 16-bit PCM WAV read/write,
* raw little-endian float32 waveforms with a one-line JSON sidecar,
  used for synthetic audio.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import warnings
from pathlib import Path

import numpy as np
from scipy.io import wavfile

FTAB_MAGIC = b"FTAB"
FTAB_VERSION = 1


@contextlib.contextmanager
def atomic_write(path, mode="wb"):
    """Open a temp file beside ``path`` for writing (``mode`` "wb" or "w").

    When the block exits cleanly the temp file replaces ``path`` in one
    ``os.replace``; when it raises, the temp file is removed.  So ``path``
    is either its old self or complete, never truncated, and no temp file
    is left behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_float_table(path, ids, matrix, meta=None):
    """Write a named float64 matrix to ``path`` (atomically, see ``atomic_write``).

    Layout: 4-byte magic, uint32 version, uint32 header length, UTF-8 JSON
    header, then row-major little-endian float64 data.  The header records
    row/column counts and one string id per row, so the file is
    self-describing.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"float table must be 2-D, got shape {matrix.shape}")
    ids = [str(i) for i in ids]
    if len(ids) != matrix.shape[0]:
        raise ValueError(
            f"id count {len(ids)} does not match row count {matrix.shape[0]}"
        )
    header = {
        "n_rows": matrix.shape[0],
        "n_cols": matrix.shape[1],
        "ids": ids,
        "meta": dict(meta or {}),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(FTAB_MAGIC)
        fh.write(np.uint32(FTAB_VERSION).tobytes())
        fh.write(np.uint32(len(blob)).tobytes())
        fh.write(blob)
        fh.write(np.ascontiguousarray(matrix, dtype="<f8").tobytes())


def load_float_table(path):
    """Read a float table; returns ``(ids, matrix, meta)``.

    The file must be exactly as long as its header says: a shorter one is
    truncated, and a longer one has bytes no writer put there.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FTAB_MAGIC:
            raise ValueError(f"{path}: not a float table file (bad magic {magic!r})")
        version = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        if version != FTAB_VERSION:
            raise ValueError(f"{path}: unsupported float table version {version}")
        header_len = int(np.frombuffer(fh.read(4), dtype="<u4")[0])
        header = json.loads(fh.read(header_len).decode("utf-8"))
        n_rows, n_cols = header["n_rows"], header["n_cols"]
        size = 12 + header_len + 8 * n_rows * n_cols
        actual = os.fstat(fh.fileno()).st_size
        if actual < size:
            raise ValueError(f"{path}: truncated float table")
        if actual > size:
            raise ValueError(
                f"{path}: {actual - size} bytes after the float table's data "
                f"(file is {actual} bytes, header says {size})"
            )
        data = np.frombuffer(fh.read(n_rows * n_cols * 8), dtype="<f8")
    matrix = data.reshape(n_rows, n_cols).copy()
    return header["ids"], matrix, header.get("meta", {})


def text_lines(path):
    """``(lineno, line)`` of each line of a UTF-8 text file, from 1.

    A line that is not UTF-8 raises ``ValueError`` naming ``path:lineno``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
        except UnicodeDecodeError as exc:
            lineno = _undecodable_line(path)
            raise ValueError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None


def _undecodable_line(path):
    """Number of the first line of ``path`` that is not UTF-8.  (Text mode
    decodes ahead of the line it hands out, so its error has no line.)"""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno


def write_wav(path, samples, sample_rate):
    """Write mono float samples in [-1, 1) as 16-bit PCM."""
    samples = np.asarray(samples, dtype=np.float64)
    clipped = np.clip(samples, -1.0, 32767.0 / 32768.0)
    pcm = np.round(clipped * 32768.0).astype(np.int16)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    wavfile.write(path, int(sample_rate), pcm)


def read_wav(path, expect_rate=None):
    """Read a mono 16-bit PCM WAV; returns ``(samples, sample_rate)``.

    Samples come back as float64 in [-1, 1).  Stereo files and non-PCM16
    encodings are rejected; ``expect_rate`` additionally pins the rate.  A
    file the WAV reader cannot parse, or whose data chunk is shorter than
    its header says, raises ``ValueError`` naming the path.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            rate, data = wavfile.read(path)
    # scipy's reader raises UnboundLocalError when the header's chunk sizes
    # run past the end of the file before any data chunk.
    except (ValueError, struct.error, wavfile.WavFileWarning, UnboundLocalError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {exc}") from None
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype != np.int16:
        raise ValueError(f"{path}: expected 16-bit PCM, got dtype {data.dtype}")
    if expect_rate is not None and rate != expect_rate:
        raise ValueError(
            f"{path}: sample rate {rate} Hz, expected {expect_rate} Hz "
            "(resampling is out of scope)"
        )
    return data.astype(np.float64) / 32768.0, int(rate)


def write_raw_float32(path, samples, sample_rate):
    """Write samples as little-endian float32 plus a JSON sidecar, each
    file atomically (see ``atomic_write``)."""
    samples = np.asarray(samples, dtype=np.float64)
    with atomic_write(path) as fh:
        fh.write(samples.astype("<f4").tobytes())
    sidecar = {"sample_rate": int(sample_rate), "length": int(samples.size)}
    with atomic_write(str(path) + ".json", "w") as fh:
        fh.write(json.dumps(sidecar) + "\n")


def read_raw_float32(path):
    """Read a raw float32 waveform written by :func:`write_raw_float32`.

    The sidecar must be a JSON object with int ``sample_rate`` and
    ``length``, and the file exactly ``4 * length`` bytes; anything else
    raises ``ValueError`` naming the file.
    """
    sidecar_path = f"{path}.json"
    with open(sidecar_path, "rb") as fh:
        try:
            sidecar = json.loads(fh.read())
        except ValueError as exc:  # not UTF-8 or not JSON
            raise ValueError(f"{sidecar_path}: sidecar is not JSON ({exc})") from None
    if not (isinstance(sidecar, dict)
            and all(type(sidecar.get(k)) is int for k in ("sample_rate", "length"))):
        raise ValueError(f"{sidecar_path}: sidecar must be a JSON object with int "
                         f"'sample_rate' and 'length', got {sidecar!r:.80}")
    length, size = sidecar["length"], os.path.getsize(path)
    if size != 4 * length:
        raise ValueError(
            f"{path}: sidecar says {length} samples ({4 * length} bytes), file has {size} bytes"
        )
    return np.fromfile(path, dtype="<f4").astype(np.float64), sidecar["sample_rate"]


def list_audio_files(directory):
    """Audio files (.wav or .f32) under ``directory``, sorted by name.

    A file's stem is its item id, so two files with the same stem are
    rejected.
    """
    directory = Path(directory)
    files = [
        p
        for p in sorted(directory.iterdir())
        if p.suffix in (".wav", ".f32") and p.is_file()
    ]
    if not files:
        raise ValueError(f"{directory}: no .wav or .f32 files found")
    by_id = {}
    for p in files:
        if p.stem in by_id:
            raise ValueError(
                f"{directory}: {by_id[p.stem].name} and {p.name} share the item id {p.stem!r}"
            )
        by_id[p.stem] = p
    return files


def read_audio(path, expect_rate=None):
    """Read either WAV or raw float32 audio by extension."""
    path = Path(path)
    if path.suffix == ".wav":
        return read_wav(path, expect_rate=expect_rate)
    if path.suffix == ".f32":
        samples, rate = read_raw_float32(path)
        if expect_rate is not None and rate != expect_rate:
            raise ValueError(
                f"{path}: sample rate {rate} Hz, expected {expect_rate} Hz"
            )
        return samples, rate
    raise ValueError(f"{path}: unsupported audio format {path.suffix!r}")
