"""Slow reference kept as an oracle for world synthesis in ``cfdistill.world``.

``item_waveform`` builds each band on its own: fresh sample times, a fresh
``rfftfreq`` and stop-band mask, and one ``rfft``/``irfft`` pair per band.
It was the library's code before the cached synthesis plan and the one
batched FFT per item replaced it; the tests require the two to agree bit
for bit.
"""

from __future__ import annotations

import numpy as np

from cfdistill.features import Waveform
from cfdistill.world import AMPLITUDE, WorldConfig, band_energies


def _band_edges(config: WorldConfig):
    return np.linspace(config.band_low, config.band_high, config.latent_dim + 1)


def _bandlimited_noise(rng, n, f_lo, f_hi, sample_rate):
    """Unit-RMS noise whose spectrum lives in [f_lo, f_hi)."""
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spectrum[(freqs < f_lo) | (freqs >= f_hi)] = 0.0
    y = np.fft.irfft(spectrum, n)
    rms = np.sqrt(np.mean(y**2))
    return y / rms


def item_waveform(config: WorldConfig, latent, item_index):
    """Deterministic waveform for one item given its latent."""
    rng = np.random.default_rng([config.seed, 3, item_index])
    n = config.n_samples
    edges = _band_edges(config)
    energies = band_energies(latent)
    t = np.arange(n) / config.sample_rate
    wave = np.zeros(n)
    for j in range(config.latent_dim):
        amp = np.sqrt(energies[j])
        wave += amp * _bandlimited_noise(rng, n, edges[j], edges[j + 1], config.sample_rate)
        center = 0.5 * (edges[j] + edges[j + 1])
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave += config.tone_level * amp * np.sqrt(2.0) * np.sin(2.0 * np.pi * center * t + phase)
    wave += config.noise_level * rng.standard_normal(n)
    return Waveform(AMPLITUDE * wave, config.sample_rate)
