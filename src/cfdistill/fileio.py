"""File formats shared across the pipeline.

Three formats live here:

* the "float table" container used for embedding tables and cached
  mel grids (see README for the byte layout),
* mono 16-bit PCM WAV input,
* raw little-endian float32 waveforms with a one-line JSON sidecar,
  used for synthetic audio.
"""

from __future__ import annotations

import contextlib
import io
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

    Anything but a file as the writer lays it out raises ``ValueError``
    naming the path: a header cut short or not a JSON object with int
    ``n_rows`` and ``n_cols`` and one id per row, and data that is not
    exactly as long as the header says (shorter is truncated, longer has
    bytes no writer put there).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != FTAB_MAGIC:
        raise ValueError(f"{path}: not a float table file (bad magic {blob[:4]!r})")
    if len(blob) < 12:
        raise ValueError(f"{path}: truncated float table ({len(blob)}-byte file)")
    version, header_len = struct.unpack_from("<II", blob, 4)
    if version != FTAB_VERSION:
        raise ValueError(f"{path}: unsupported float table version {version}")
    if len(blob) < 12 + header_len:
        raise ValueError(f"{path}: truncated float table (header of {header_len} bytes)")
    try:
        header = json.loads(blob[12:12 + header_len].decode("utf-8"))
        n_rows, n_cols, ids = header["n_rows"], header["n_cols"], header["ids"]
    except (ValueError, TypeError, KeyError) as exc:
        raise ValueError(f"{path}: bad float table header: {exc!r}") from None
    if not (type(n_rows) is type(n_cols) is int and min(n_rows, n_cols) >= 0
            and isinstance(ids, list) and len(ids) == n_rows):
        raise ValueError(
            f"{path}: bad float table header: n_rows {n_rows!r}, n_cols {n_cols!r}, "
            f"{len(ids) if isinstance(ids, list) else type(ids).__name__} ids"
        )
    size = 12 + header_len + 8 * n_rows * n_cols
    if len(blob) < size:
        raise ValueError(f"{path}: truncated float table")
    if len(blob) > size:
        raise ValueError(
            f"{path}: {len(blob) - size} bytes after the float table's data "
            f"(file is {len(blob)} bytes, header says {size})"
        )
    matrix = np.frombuffer(blob, dtype="<f8", offset=12 + header_len).reshape(n_rows, n_cols)
    return ids, matrix.copy(), header.get("meta", {})


def read_json(path):
    """The value in a UTF-8 JSON file; a file that is not UTF-8 or not JSON
    raises ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None


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


def read_wav(path, expect_rate=None):
    """Read a mono 16-bit PCM WAV; returns ``(samples, sample_rate)``.

    Samples come back as float64 in [-1, 1).  Stereo files and non-PCM16
    encodings are rejected; ``expect_rate`` additionally pins the rate.  A
    file the WAV reader cannot parse, or whose chunks do not exactly fill
    the file its RIFF header sizes, raises ``ValueError`` naming the path.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        bits = _wav_bits_per_sample(blob)
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            rate, data = wavfile.read(io.BytesIO(blob))
    # scipy's reader raises UnboundLocalError when the header's chunk sizes
    # run past the end of the file before any data chunk,
    # and ZeroDivisionError for a header of zero channels.
    except (ValueError, struct.error, wavfile.WavFileWarning, UnboundLocalError,
            ZeroDivisionError) as exc:
        raise ValueError(f"{path}: not a readable WAV file: {exc}") from None
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype != np.int16 or bits != 16:
        raise ValueError(f"{path}: expected 16-bit PCM, got dtype {data.dtype} "
                         f"from {bits} bits per sample")
    if expect_rate is not None and rate != expect_rate:
        raise ValueError(
            f"{path}: sample rate {rate} Hz, expected {expect_rate} Hz "
            "(resampling is out of scope)"
        )
    return data.astype(np.float64) / 32768.0, int(rate)


def _wav_bits_per_sample(blob):
    """The ``fmt`` chunk's bits per sample of a RIFF/WAVE file whose RIFF
    chunk is the whole file and whose chunks exactly fill it; anything
    else raises ``ValueError``."""
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("no RIFF/WAVE header")
    riff_size = 8 + struct.unpack_from("<I", blob, 4)[0]
    if riff_size != len(blob):
        raise ValueError(f"RIFF header says {riff_size} bytes, file has {len(blob)}")
    bits, pos = None, 12
    while pos < len(blob):
        name, size = struct.unpack_from("<4sI", blob, pos)  # struct.error if cut short
        if pos + 8 + size > len(blob):
            raise ValueError(f"{name!r} chunk of {size} bytes runs past the end of the file")
        if name == b"fmt " and size >= 16:
            bits = struct.unpack_from("<H", blob, pos + 22)[0]
        pos += 8 + size + size % 2
    return bits


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

    The sidecar must be one line (its only newline the last byte) holding a
    JSON object with int ``sample_rate`` and ``length``, and the file
    exactly ``4 * length`` bytes; anything else raises ``ValueError``
    naming the file.
    """
    sidecar_path = f"{path}.json"
    with open(sidecar_path, "rb") as fh:
        blob = fh.read()
    try:
        sidecar = json.loads(blob)
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ValueError(f"{sidecar_path}: sidecar is not JSON ({exc})") from None
    if not (isinstance(sidecar, dict)
            and all(type(sidecar.get(k)) is int for k in ("sample_rate", "length"))):
        raise ValueError(f"{sidecar_path}: sidecar must be a JSON object with int "
                         f"'sample_rate' and 'length', got {sidecar!r:.80}")
    if blob.find(b"\n") != len(blob) - 1:
        raise ValueError(f"{sidecar_path}: sidecar must be one line ending in a newline")
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
