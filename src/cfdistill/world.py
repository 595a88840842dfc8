"""Synthetic listening world: latent factors, logs, audio, labels.

Items carry true latent vectors.  Users interact with items according to
a sigmoid affinity on latent inner products; each item's waveform is a
mixture of band-limited noise (plus faint tones) whose per-band energies
are an affine function of the item latent; task labels derive from the
same latent.  Structure in the logs therefore carries task-relevant
information by construction, which is the premise the transfer regimes
compete over.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

from .als import Interactions
from .features import Waveform, Waveforms

AMPLITUDE = 0.1  # overall output scale, keeps PCM headroom


@dataclass
class WorldConfig:
    n_users: int = 200
    n_items: int = 300
    latent_dim: int = 4
    affinity_scale: float = 3.0
    affinity_offset: float = -1.0
    count_rate: float = 1.0
    sample_rate: int = 16000
    duration: float = 1.875
    band_low: float = 400.0
    band_high: float = 7600.0
    tone_level: float = 0.25
    noise_level: float = 0.4
    task_kind: str = "classification"
    n_classes: int = 4
    label_rule: str = "latent"  # "latent" or "random"
    seed: int = 0

    def __post_init__(self):
        if self.task_kind not in ("classification", "regression"):
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        if self.label_rule not in ("latent", "random"):
            raise ValueError(f"unknown label rule {self.label_rule!r}")
        if self.task_kind == "classification" and not (2 <= self.n_classes <= self.latent_dim):
            raise ValueError("need 2 <= n_classes <= latent_dim for classification worlds")
        n = self.duration * self.sample_rate
        if abs(n - round(n)) > 1e-9:
            raise ValueError("duration must be a whole number of samples")
        if not (0 < self.band_low < self.band_high <= self.sample_rate / 2):
            raise ValueError("invalid band range")
        if self.n_users < 1 or self.n_items < 1 or self.latent_dim < 1:
            raise ValueError("world dimensions must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")

    @property
    def n_samples(self) -> int:
        return round(self.duration * self.sample_rate)


@dataclass
class World:
    config: WorldConfig
    interactions: Interactions
    waveforms: Waveforms  # or any picklable sequence of Waveforms
    labels: np.ndarray
    item_ids: list
    item_latents: np.ndarray
    user_latents: np.ndarray


def band_energies(latent):
    """Per-band energy profile of an item latent: affine, strictly positive
    for latents in [-1, 1]."""
    return 1.0 + 0.5 * np.asarray(latent, dtype=np.float64)


@functools.lru_cache(maxsize=8)
def _synthesis_plan(n, sample_rate, band_low, band_high, latent_dim):
    """Sample times, each band's tone frequency in rad/s and a
    (latent_dim, n_bins) mask of each band's stop bins, for one world shape.

    Built once per shape and read-only, so every item of the shape shares it.
    """
    edges = np.linspace(band_low, band_high, latent_dim + 1)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    t = np.arange(n) / sample_rate
    omegas = 2.0 * np.pi * (0.5 * (edges[:-1] + edges[1:]))
    stop = (freqs < edges[:-1, None]) | (freqs >= edges[1:, None])
    for array in (t, omegas, stop):
        array.flags.writeable = False
    return t, omegas, stop


def item_waveform(config: WorldConfig, latent, item_index):
    """Deterministic waveform for one item given its latent.

    Each band is unit-RMS noise limited to the band, plus a tone at the
    band's centre, both scaled by the square root of the band's energy; the
    item's generator draws each band's noise then its tone phase, and last
    the broadband noise.  All bands share one batched ``rfft``/``irfft``.
    """
    rng = np.random.default_rng([config.seed, 3, item_index])
    n, d = config.n_samples, config.latent_dim
    t, omegas, stop = _synthesis_plan(
        n, config.sample_rate, config.band_low, config.band_high, d
    )
    bands = np.empty((d, n))
    phases = np.empty(d)
    for j in range(d):
        rng.standard_normal(out=bands[j])
        phases[j] = rng.uniform(0.0, 2.0 * np.pi)
    spectrum = np.fft.rfft(bands)
    spectrum[stop] = 0.0
    bands = np.fft.irfft(spectrum, n)
    amps = np.sqrt(band_energies(latent))
    wave = np.zeros(n)
    tone = np.empty(n)
    for j, band in enumerate(bands):
        band /= np.sqrt(np.mean(band**2))
        band *= amps[j]
        wave += band
        np.multiply(omegas[j], t, out=tone)
        tone += phases[j]
        np.sin(tone, out=tone)
        tone *= config.tone_level * amps[j] * np.sqrt(2.0)
        wave += tone
    wave += config.noise_level * rng.standard_normal(n)
    wave *= AMPLITUDE
    return Waveform(wave, config.sample_rate)


def _make_labels(config: WorldConfig, item_latents, rng):
    """Labels and (for the latent rule) latents adjusted so the argmax of
    the first n_classes coordinates equals the class, giving exact balance."""
    n = config.n_items
    if config.task_kind == "regression":
        w = np.ones(config.latent_dim) / np.sqrt(config.latent_dim)
        return item_latents @ w, item_latents
    k = config.n_classes
    if config.label_rule == "random":
        labels = rng.permutation(np.arange(n) % k)
        return labels.astype(np.int64), item_latents
    latents = item_latents.copy()
    labels = np.arange(n) % k
    for i in range(n):
        c = labels[i]
        j = int(np.argmax(latents[i, :k]))
        latents[i, c], latents[i, j] = latents[i, j], latents[i, c]
    return labels.astype(np.int64), latents


def generate_world(config: WorldConfig) -> World:
    """Sample a complete world; deterministic for a given config.

    The audio is not synthesized here: ``waveforms`` synthesizes each item
    when it is read.  Each item draws from its own generator, seeded by its
    index in the world, so its bytes do not depend on which slice or
    process synthesizes it.
    """
    rng_lat = np.random.default_rng([config.seed, 0])
    item_latents = rng_lat.uniform(-1.0, 1.0, size=(config.n_items, config.latent_dim))
    user_latents = rng_lat.normal(0.0, 1.0, size=(config.n_users, config.latent_dim))

    labels, item_latents = _make_labels(
        config, item_latents, np.random.default_rng([config.seed, 1])
    )

    rng_int = np.random.default_rng([config.seed, 2])
    # In place: the (n_users, n_items) matrix is the world's largest temporary.
    probs = user_latents @ item_latents.T
    probs *= config.affinity_scale
    probs += config.affinity_offset
    sigmoid(probs, out=probs)
    if float(probs.max()) <= 0.0:
        raise ValueError("interaction probabilities are all zero; infeasible world")
    mask = rng_int.random(probs.shape) < probs
    for i in range(config.n_items):
        tries = 0
        while not mask[:, i].any():
            mask[:, i] = rng_int.random(config.n_users) < probs[:, i]
            tries += 1
            if tries >= 1000:
                mask[int(np.argmax(probs[:, i])), i] = True
    # Row-major: user by user, each user's items in index order.
    users, items = np.nonzero(mask)
    counts = 1 + rng_int.poisson(config.count_rate, size=users.size)

    item_ids = [f"item_{i:05d}" for i in range(config.n_items)]
    user_ids = [f"user_{u:05d}" for u in range(config.n_users)]

    return World(
        config=config,
        interactions=Interactions(user_ids, item_ids, users, items, counts),
        waveforms=Waveforms(functools.partial(item_waveform, config),
                            zip(item_latents, range(config.n_items))),
        labels=labels,
        item_ids=item_ids,
        item_latents=item_latents,
        user_latents=user_latents,
    )
