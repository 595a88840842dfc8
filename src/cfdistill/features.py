"""Waveform to mel-spectrogram conversion.

Hann-windowed power STFT with reflect-mode center padding (the framing
that maps 480000 samples at hop 375 to exactly 1280 frames), followed by
a triangular mel filterbank and optional log compression.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform samples must be 1-D")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")


class Waveforms(Sequence):
    """Waveforms made when read: item ``i`` is ``make(*args[i])``.

    A slice is a ``Waveforms`` over those ``args``.  ``make`` is a module
    function (or a ``functools.partial`` of one), so a block of items
    pickles as its arguments and a pool worker makes them (see
    ``experiment.write_items``).
    """

    def __init__(self, make, args):
        self.make = make
        self.args = list(args)

    def __len__(self):
        return len(self.args)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Waveforms(self.make, self.args[index])
        return self.make(*self.args[index])


@dataclass(frozen=True)
class FeatureConfig:
    n_fft: int = 512
    hop: int = 375
    n_mels: int = 96
    sample_rate: int = 16000
    fmin: float = 0.0
    fmax: float = 8000.0
    log_compress: bool = True
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.n_fft < 2 or self.hop < 1 or self.n_mels < 1:
            raise ValueError("n_fft, hop and n_mels must be positive")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise ValueError(
                f"need 0 <= fmin < fmax <= Nyquist, got [{self.fmin}, {self.fmax}] "
                f"at {self.sample_rate} Hz"
            )
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        return -(-n_samples // self.hop)  # ceil division


@dataclass
class MelSpectrogram:
    """Mel-bins x frames grid plus the config that produced it."""

    grid: np.ndarray
    config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.float64)
        if not np.all(np.isfinite(self.grid)):
            raise ValueError("mel grid contains non-finite entries")

    @property
    def n_mels(self) -> int:
        return self.grid.shape[0]

    @property
    def n_frames(self) -> int:
        return self.grid.shape[1]


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_power(wave: Waveform, config: FeatureConfig) -> np.ndarray:
    """Power spectrogram, shape (n_fft // 2 + 1, ceil(N / hop)).

    Frame t is the Hann-windowed slice of the reflect-padded signal
    centered on sample t * hop of the original.
    """
    n = wave.samples.size
    if n == 0:
        raise ValueError("cannot compute an STFT of an empty waveform")
    pad = config.n_fft // 2
    if n <= pad:
        raise ValueError(
            f"waveform of {n} samples is too short for reflect padding of {pad}"
        )
    padded = np.pad(wave.samples, pad, mode="reflect")
    # Frame t starts at t * hop: every hop-th window of a strided view, so
    # the windowing product below is the only copy of the frames.
    frames = sliding_window_view(padded, config.n_fft)[:: config.hop][: config.n_frames(n)]
    spectrum = np.fft.rfft(frames * hann_window(config.n_fft), axis=1)
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    return power.T


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular filters, shape (n_mels, n_fft // 2 + 1).

    Centers are uniform on the mel scale between fmin and fmax; each
    filter is a unit-peak triangle sampled at the FFT bin frequencies.
    A filter whose triangle falls between bins would be silently dead, so
    that case raises a configuration error.
    """
    mel_pts = np.linspace(hz_to_mel(config.fmin), hz_to_mel(config.fmax), config.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(config.n_bins) * config.sample_rate / config.n_fft
    fb = np.zeros((config.n_mels, config.n_bins))
    for k in range(config.n_mels):
        lo, center, hi = hz_pts[k], hz_pts[k + 1], hz_pts[k + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        fb[k] = np.maximum(0.0, np.minimum(rising, falling))
    dead = np.where(~np.any(fb > 0, axis=1))[0]
    if dead.size:
        raise ValueError(
            f"filters {dead.tolist()} have no positive weight; "
            f"n_mels={config.n_mels} is too large for n_fft={config.n_fft} "
            f"at {config.sample_rate} Hz"
        )
    return fb


@functools.lru_cache(maxsize=8)
def _shared_filterbank(config: FeatureConfig) -> np.ndarray:
    """``mel_filterbank(config)``, built once per config and read-only.

    Every grid of a run uses the same filterbank, and building it (a
    Python loop over the filters) costs more than a clip's STFT.
    """
    fb = mel_filterbank(config)
    fb.flags.writeable = False
    return fb


def melspectrogram(wave: Waveform, config: FeatureConfig) -> MelSpectrogram:
    """Mel grid of ``wave``: filterbank x power STFT, optionally log10."""
    grid = _shared_filterbank(config) @ stft_power(wave, config)
    if config.log_compress:
        grid += config.log_floor
        np.log10(grid, out=grid)
    return MelSpectrogram(grid=grid, config=config)
