"""STFT framing, mel filterbank geometry, and the full mel pipeline."""

import numpy as np
import pytest

import reference_features as ref
from cfdistill import features
from cfdistill.features import (
    FeatureConfig,
    Waveform,
    hann_window,
    mel_filterbank,
    mel_to_hz,
    melspectrogram,
    stft_power,
)


def dft_power_oracle(frame):
    """Quadratic-time DFT power of one already-windowed frame."""
    n = frame.size
    bins = n // 2 + 1
    out = np.zeros(bins)
    for k in range(bins):
        re = np.sum(frame * np.cos(-2.0 * np.pi * k * np.arange(n) / n))
        im = np.sum(frame * np.sin(-2.0 * np.pi * k * np.arange(n) / n))
        out[k] = re * re + im * im
    return out


def windowed_frame(samples, config, t):
    """The padded, windowed samples my STFT assigns to frame t."""
    pad = config.n_fft // 2
    padded = np.pad(samples, pad, mode="reflect")
    frame = padded[t * config.hop : t * config.hop + config.n_fft]
    return frame * hann_window(config.n_fft)


class TestStftPower:
    def test_paper_scale_framing(self):
        config = FeatureConfig()
        wave = Waveform(np.zeros(480000), 16000)
        power = stft_power(wave, config)
        assert power.shape == (257, 1280)

    def test_zero_waveform_gives_zero_power(self):
        config = FeatureConfig()
        power = stft_power(Waveform(np.zeros(4000)), config)
        assert np.all(power == 0.0)

    def test_impulse_frame_matches_dft_oracle(self):
        config = FeatureConfig()
        n = 3000
        t = 4  # impulse at this frame's center
        samples = np.zeros(n)
        samples[t * config.hop] = 1.0
        power = stft_power(Waveform(samples), config)
        oracle = dft_power_oracle(windowed_frame(samples, config, t))
        np.testing.assert_allclose(power[:, t], oracle, rtol=1e-8, atol=1e-12)
        # the centered impulse passes through the window's center weight
        center = hann_window(config.n_fft)[config.n_fft // 2]
        np.testing.assert_allclose(power[:, t], center**2, rtol=1e-8)

    def test_random_frame_matches_dft_oracle(self):
        rng = np.random.default_rng(0)
        config = FeatureConfig()
        samples = rng.normal(size=2500)
        power = stft_power(Waveform(samples), config)
        t = int(rng.integers(power.shape[1]))
        oracle = dft_power_oracle(windowed_frame(samples, config, t))
        err = np.abs(power[:, t] - oracle) / np.maximum(np.abs(oracle), 1e-12)
        assert err[oracle > 1e-12].max() < 1e-8

    def test_frame_count_law_over_random_lengths(self):
        rng = np.random.default_rng(1)
        config = FeatureConfig()
        for _ in range(25):
            n = int(rng.integers(300, 50000))
            power = stft_power(Waveform(rng.normal(size=n)), config)
            assert power.shape[1] == -(-n // config.hop)

    def test_empty_waveform_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stft_power(Waveform(np.array([])), FeatureConfig())

    def test_amplitude_scaling_is_quadratic_in_power(self):
        rng = np.random.default_rng(2)
        config = FeatureConfig()
        samples = rng.normal(size=2000)
        p1 = stft_power(Waveform(samples), config)
        p3 = stft_power(Waveform(3.0 * samples), config)
        np.testing.assert_allclose(p3, 9.0 * p1, rtol=1e-9)


class TestMelFilterbank:
    def test_paper_scale_shape(self):
        fb = mel_filterbank(FeatureConfig())
        assert fb.shape == (96, 257)
        assert np.all(fb >= 0)
        assert np.all(np.any(fb > 0, axis=1))

    def test_supports_are_contiguous_bin_intervals(self):
        fb = mel_filterbank(FeatureConfig())
        for row in fb:
            nz = np.flatnonzero(row > 0)
            assert np.array_equal(nz, np.arange(nz[0], nz[-1] + 1))

    def test_peak_frequencies_increase_monotonically(self):
        fb = mel_filterbank(FeatureConfig())
        peaks = np.argmax(fb, axis=1)
        assert np.all(np.diff(peaks) >= 0)
        # strictly increasing once filters are wider than one bin
        assert peaks[-1] > peaks[0]

    def test_too_many_filters_rejected(self):
        config = FeatureConfig(n_fft=64, n_mels=96)
        with pytest.raises(ValueError, match="no positive weight"):
            mel_filterbank(config)

    def test_invalid_band_edges_rejected(self):
        with pytest.raises(ValueError):
            FeatureConfig(fmin=5000.0, fmax=4000.0)
        with pytest.raises(ValueError):
            FeatureConfig(fmax=9000.0)  # above Nyquist at 16 kHz


class TestMelspectrogram:
    def test_paper_scale_grid(self):
        config = FeatureConfig()
        wave = Waveform(np.random.default_rng(3).normal(size=480000), 16000)
        mel = melspectrogram(wave, config)
        assert mel.grid.shape == (96, 1280)

    def test_zero_waveform_without_log_is_zero(self):
        config = FeatureConfig(log_compress=False)
        mel = melspectrogram(Waveform(np.zeros(3000)), config)
        assert np.all(mel.grid == 0.0)

    def test_nonnegative_before_log(self):
        rng = np.random.default_rng(4)
        config = FeatureConfig(log_compress=False)
        mel = melspectrogram(Waveform(rng.normal(size=5000)), config)
        assert np.all(mel.grid >= 0.0)

    def test_tone_at_filter_center_dominates_every_frame(self):
        config = FeatureConfig(log_compress=False)
        k = 40
        mel_pts = np.linspace(0.0, 2595.0 * np.log10(1.0 + config.fmax / 700.0), config.n_mels + 2)
        center_hz = float(mel_to_hz(mel_pts[k + 1]))
        # cosine phase reflects seamlessly at the head; a length divisible by
        # the hop keeps the tail boundary outside the last frame's window
        t = np.arange(8250) / config.sample_rate
        wave = Waveform(np.cos(2.0 * np.pi * center_hz * t))
        mel = melspectrogram(wave, config)
        assert np.all(np.argmax(mel.grid, axis=0) == k)

    def test_shared_filterbank_gives_the_same_grid(self):
        config = FeatureConfig()
        wave = Waveform(np.random.default_rng(0).normal(size=4000))
        want = np.log10(mel_filterbank(config) @ stft_power(wave, config) + config.log_floor)
        for cfg in (config, FeatureConfig()):
            np.testing.assert_array_equal(melspectrogram(wave, cfg).grid, want)
        assert not features._shared_filterbank(config).flags.writeable

    def test_config_snapshot_kept(self):
        config = FeatureConfig(n_mels=32)
        mel = melspectrogram(Waveform(np.ones(2000)), config)
        assert mel.config == config
        assert mel.n_mels == 32


class TestAgainstReference:
    """The strided frames and in-place power and log give the bits of the
    fancy-index STFT and out-of-place mel grid in ``reference_features``."""

    CONFIGS = [FeatureConfig(), FeatureConfig(n_fft=255, hop=100, n_mels=20),
               FeatureConfig(log_compress=False)]

    @pytest.mark.parametrize("config", CONFIGS, ids=["default", "odd-fft", "no-log"])
    def test_same_bits_over_clip_lengths(self, config):
        rng = np.random.default_rng(config.n_fft)
        shortest = config.n_fft // 2 + 1  # the shortest clip reflect padding accepts
        hop = config.hop
        lengths = [shortest, shortest + 1, hop - 1, hop, hop + 1, 2 * hop + 1, 3001, 30000, 30001]
        for n in sorted(n for n in set(lengths) if n >= shortest):
            wave = Waveform(rng.normal(size=n))
            got, want = stft_power(wave, config), ref.stft_power(wave, config)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"STFT, {n} samples"
            got, want = melspectrogram(wave, config).grid, ref.melspectrogram(wave, config).grid
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"mel, {n} samples"

    def test_too_short_clip_rejected_by_both(self):
        config = FeatureConfig()
        wave = Waveform(np.ones(config.n_fft // 2))
        for fn in (stft_power, ref.stft_power):
            with pytest.raises(ValueError, match="too short for reflect padding"):
                fn(wave, config)
