"""Slow reference kept as an oracle for world synthesis in ``cfdistill.world``.

``item_waveform`` builds each band on its own: fresh sample times, a fresh
``rfftfreq`` and stop-band mask, and one ``rfft``/``irfft`` pair per band.
It was the library's code before the cached synthesis plan and the one
batched FFT per item replaced it; the tests require the two to agree bit
for bit.

``user_latents`` redraws the user latents that ``generate_world`` uses for
its interaction probabilities and does not keep.

``mean_canonical_correlation`` measures how well factorized embeddings
recover the world's true latents, up to rotation.
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


def user_latents(config: WorldConfig):
    """The user latents of the world ``config`` generates: its latent
    generator draws the item uniforms, then the user normals."""
    rng = np.random.default_rng([config.seed, 0])
    rng.uniform(-1.0, 1.0, size=(config.n_items, config.latent_dim))
    return rng.normal(0.0, 1.0, size=(config.n_users, config.latent_dim))


def mean_canonical_correlation(a, b):
    """Mean canonical correlation between the columns of two matrices.

    Measures alignment up to rotation; used to check that factorized
    embeddings recover the world's true latents.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] != b.shape[0]:
        raise ValueError("need the same number of rows")
    a = a - a.mean(axis=0)
    b = b - b.mean(axis=0)
    k = min(a.shape[1], b.shape[1])

    def _whiten(m):
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        rank = int(np.sum(s > s[0] * 1e-10)) if s.size else 0
        return u[:, :rank]

    ua, ub = _whiten(a), _whiten(b)
    corrs = np.linalg.svd(ua.T @ ub, compute_uv=False)
    corrs = np.clip(corrs[:k], 0.0, 1.0)
    if corrs.size < k:
        corrs = np.concatenate([corrs, np.zeros(k - corrs.size)])
    return float(np.mean(corrs))
