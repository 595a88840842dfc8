"""A seeded corruption sweep over every reader of a file the pipeline takes in.

Each reader gets a file its writer wrote, damaged three ways:

* truncation: the file cut at every length shorter than it;
* header bit flips: every bit of the bytes that declare the file's layout
  (see ``HEADERS``), one bit per case;
* trailing bytes: 1 to 8 seeded random bytes appended.

Every case must raise ``ValueError`` whose message names the damaged file,
and no case may raise anything else.  The one exception is the documented
one for the text formats (``labels.csv``, ``logs.tsv``, ``results.csv``): a
cut in the middle of the last line can leave a shorter row that still
parses (``u1<TAB>i1<TAB>1`` from ``...<TAB>12``, a time of ``1.`` from
``1.250``, or a last line without its newline), and a ``logs.tsv`` or
``results.csv`` cut at a line boundary has fewer rows.  Such a cut must parse to the intact file's rows, the
last one possibly cut short.  Flips in the data itself (float values,
audio samples, ids and labels) pass every reader: no format here has a
checksum, except a checkpoint's CRC-32 per member.
"""

import io
import json
import struct
import warnings
import zipfile

import numpy as np
import pytest
from scipy.io import wavfile

from cfdistill import fileio
from cfdistill.als import parse_log_file
from cfdistill.experiment import (_load_labels_csv, _write_labels, read_results_csv,
                                  write_results_csv)
from cfdistill.nn.network import LayerSpec, build_network, load_checkpoint, save_checkpoint
from cfdistill.transfer import ExperimentResult, TaskSpec

from conftest import write_wav

SEED = 15
RATE = 16000
ITEMS = ["i0", "i1", "i2"]
LOG_TEXT = "u0\ti0\t3\nu1\ti1\t12\nu0\ti2\n"


def _ftab(path):
    fileio.save_float_table(path, ["a", "b", "c"], np.arange(12.0).reshape(3, 4),
                            meta={"kind": "test"})
    return path, lambda p: fileio.load_float_table(p)


def _f32(path):
    path = path.with_suffix(".f32")
    fileio.write_raw_float32(path, np.linspace(-0.5, 0.5, 100), RATE)
    return path, lambda p: fileio.read_audio(p, expect_rate=RATE)


def _sidecar(path):
    # The sidecar is damaged, the reader reads the waveform it belongs to, and
    # its error names the .f32 file or the sidecar (whose name starts with it).
    audio, _ = _f32(path)
    sidecar = audio.with_name(audio.name + ".json")
    return sidecar, lambda p: fileio.read_audio(audio, expect_rate=RATE)


def _wav(path):
    write_wav(path.with_suffix(".wav"), np.linspace(-0.5, 0.5, 200), RATE)
    return path.with_suffix(".wav"), lambda p: fileio.read_audio(p, expect_rate=RATE)


def _checkpoint(path):
    model = build_network([LayerSpec("fully_connected", width=3)], (2,), seed=0)
    save_checkpoint(model, path.with_suffix(".npz"))
    return path.with_suffix(".npz"), lambda p: load_checkpoint(p)


def _labels(path):
    _write_labels(path, ITEMS, [0, 1, 2], "classification")
    return path, lambda p: _load_labels_csv(p, TaskSpec("classification", n_classes=3), ITEMS)


def _logs(path):
    path.write_text(LOG_TEXT, encoding="utf-8")
    return path, lambda p: parse_log_file(p)


def _results(path):
    write_results_csv(path, [("genre", ExperimentResult("base", 8, 0, 0, 0.52, 3, 1.25)),
                             ("genre", ExperimentResult("kd", 8, 0, 0, 0.6, 12, 2.5))])
    return path, lambda p: read_results_csv(p)


READERS = {"ftab": _ftab, "f32": _f32, "sidecar": _sidecar, "wav": _wav,
           "checkpoint": _checkpoint, "labels": _labels, "logs": _logs, "results": _results}
TEXT = ("labels", "logs", "results")


def _ftab_header(blob):
    """The 12-byte prefix (magic, version, header length) and the JSON
    header's ``n_cols``/``n_rows`` entries, which end it."""
    end = 12 + struct.unpack_from("<I", blob, 8)[0]
    return [range(12), range(blob.index(b'"n_cols"'), end)]


def _zip_header(blob):
    """The first member's local header: every byte before its data."""
    name_len, extra_len = struct.unpack_from("<2H", blob, 26)
    return [range(zipfile.sizeFileHeader + name_len + extra_len)]


# The bytes whose bits the sweep flips, per reader.  Raw .f32 audio has no
# header (its sidecar is one, flipped whole); logs.tsv has none either.
HEADERS = {
    "ftab": _ftab_header,
    "f32": lambda blob: [],
    "sidecar": lambda blob: [range(len(blob))],
    "wav": lambda blob: [range(44)],
    "checkpoint": _zip_header,
    "labels": lambda blob: [range(blob.index(b"\n") + 1)],
    "results": lambda blob: [range(blob.index(b"\n") + 1)],
    "logs": lambda blob: [],
}


def corruptions(name, blob):
    """``(label, damaged bytes)`` of every case of one reader's file."""
    for n in range(len(blob)):
        yield f"cut to {n}", blob[:n]
    for span in HEADERS[name](blob):
        for byte in span:
            for bit in range(8):
                damaged = bytearray(blob)
                damaged[byte] ^= 1 << bit
                yield f"bit {bit} of byte {byte} flipped", bytes(damaged)
    for k in range(1, 9):
        tail = np.random.default_rng([SEED, k]).integers(0, 256, k, dtype=np.uint8).tobytes()
        yield f"{tail!r} appended", blob + tail


def _rows(parsed, name):
    """A text reader's result as a list of rows."""
    if name == "labels":
        return list(parsed.items())
    if name == "results":
        return [tuple(row.values()) for row in parsed]
    return [(parsed.user_ids[u], parsed.item_ids[i], int(c))
            for u, i, c in zip(parsed.users, parsed.items, parsed.counts)]


def _digits(value):
    """A parsed field as the text a cut could have left: a float ``1.0``
    comes from ``1`` or ``1.``."""
    return str(value).removesuffix(".0") if isinstance(value, float) else str(value)


def _short_last_row(got, want):
    """Whether ``got`` is the first rows of ``want``, the last possibly cut
    short: each field a prefix of the intact one (a number by its digits), or
    a log count of 1, the format's default, when the cut took the count."""
    if not got or len(got) > len(want) or got[:-1] != want[:len(got) - 1]:
        return False
    last, intact = got[-1], want[len(got) - 1]
    prefixes = [_digits(w).startswith(_digits(g)) for g, w in zip(last, intact)]
    return all(prefixes) or (len(last) == 3 and all(prefixes[:2]) and last[2] == 1)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_corruption_raises_a_value_error_naming_the_file(name, tmp_path):
    path, read = READERS[name](tmp_path / f"{name}.bin")
    blob = path.read_bytes()
    intact = read(path)
    target = path.with_suffix("") if name == "sidecar" else path  # the .f32 file
    failures, cases = [], 0
    for label, damaged in corruptions(name, blob):
        cases += 1
        path.write_bytes(damaged)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", wavfile.WavFileWarning)
                got = read(path)
        except ValueError as exc:
            if str(target) not in str(exc):
                failures.append(f"{label}: error names no file: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - any other type is the failure reported
            failures.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        cut = label.startswith("cut")
        if not (cut and name in TEXT
                and _short_last_row(_rows(got, name), _rows(intact, name))):
            failures.append(f"{label}: accepted")
    assert cases > 8
    assert not failures, f"{len(failures)} of {cases} cases:\n" + "\n".join(failures[:20])


def test_checkpoint_with_trailing_bytes_names_the_file(tmp_path):
    path, read = _checkpoint(tmp_path / "model")
    blob = path.read_bytes()
    for k in range(1, 9):
        path.write_bytes(blob + b"\0" * k)
        with pytest.raises(ValueError, match="bytes after the zip archive") as info:
            read(path)
        assert str(info.value).startswith(f"{path}: ")
    path.write_bytes(blob)
    assert read(path).get_state().keys() == {"0.w", "0.b"}


def test_sweep_headers_cover_what_they_name(tmp_path):
    """The header spans land on the fields they are meant to cover."""
    path, _ = _ftab(tmp_path / "t.ftab")
    blob = path.read_bytes()
    prefix, tail = _ftab_header(blob)
    assert blob[prefix.start:prefix.stop][:4] == b"FTAB"
    assert json.loads(b"{" + blob[tail.start:tail.stop]) == {"n_cols": 4, "n_rows": 3}
    path, _ = _checkpoint(tmp_path / "m")
    blob = path.read_bytes()
    (local,) = _zip_header(blob)
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        first = archive.infolist()[0]
    assert blob[:4] == b"PK\x03\x04" and first.header_offset == 0
    assert blob[local.stop:local.stop + 6] == b"\x93NUMPY"  # the member's data starts there
