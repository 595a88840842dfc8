"""The STFT and mel grid as the library computed them before the strided
frames and in-place power and log, kept as an oracle for ``cfdistill.features``.

``stft_power`` gathers the frames with a fancy index and sums the squared
real and imaginary parts into a new array; ``melspectrogram`` takes the
log of a new array.  The tests require the library's grids to be the same
bits.
"""

from __future__ import annotations

import numpy as np

from cfdistill.features import (
    FeatureConfig,
    MelSpectrogram,
    Waveform,
    _shared_filterbank,
    hann_window,
)


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
    n_frames = config.n_frames(n)
    starts = np.arange(n_frames) * config.hop
    frames = padded[starts[:, None] + np.arange(config.n_fft)[None, :]]
    frames = frames * hann_window(config.n_fft)[None, :]
    spectrum = np.fft.rfft(frames, axis=1)
    return (spectrum.real**2 + spectrum.imag**2).T


def melspectrogram(wave: Waveform, config: FeatureConfig) -> MelSpectrogram:
    """Mel grid of ``wave``: filterbank x power STFT, optionally log10."""
    grid = _shared_filterbank(config) @ stft_power(wave, config)
    if config.log_compress:
        grid = np.log10(grid + config.log_floor)
    return MelSpectrogram(grid=grid, config=config)
