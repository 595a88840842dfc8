"""Synthetic world invariants: logs, labels, audio encoding, recovery."""

import numpy as np
import pytest

from cfdistill.als import AlsConfig, als_fit, build_interaction_matrix, item_vector
from cfdistill.experiment import write_world
from cfdistill.world import (
    WorldConfig,
    band_energies,
    generate_world,
    item_waveform,
)
from reference_world import mean_canonical_correlation, user_latents

SMALL = WorldConfig(n_users=40, n_items=48, latent_dim=4, seed=5)


@pytest.fixture(scope="module")
def small_world():
    return generate_world(SMALL)


class TestLogsInvariants:
    def test_counts_positive_and_pairs_unique(self, small_world):
        logs = small_world.interactions
        pairs = set(zip(logs.users.tolist(), logs.items.tolist()))
        assert len(pairs) == len(logs)
        assert np.all(logs.counts >= 1)

    def test_every_item_has_an_interaction(self, small_world):
        logs = small_world.interactions
        assert logs.item_ids == small_world.item_ids
        assert set(logs.items.tolist()) == set(range(SMALL.n_items))

    def test_matrix_round_trip(self, small_world, tmp_path):
        write_world(small_world, tmp_path, audio=False)
        m = build_interaction_matrix(tmp_path / "logs.tsv")
        assert m.n_items == SMALL.n_items
        assert m.nnz == len(small_world.interactions)

    def test_deterministic_generation(self):
        a = generate_world(SMALL)
        b = generate_world(SMALL)
        for column in ("users", "items", "counts"):
            np.testing.assert_array_equal(
                getattr(a.interactions, column), getattr(b.interactions, column)
            )
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.item_latents, b.item_latents)
        for wa, wb in zip(a.waveforms, b.waveforms):
            np.testing.assert_array_equal(wa.samples, wb.samples)


class TestEncoder:
    def test_identical_latents_identical_energy_profiles(self):
        z = np.array([0.3, -0.5, 0.9, 0.0])
        np.testing.assert_array_equal(band_energies(z), band_energies(z.copy()))

    def test_energies_affine_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-1, 1, size=4)
            e = band_energies(z)
            np.testing.assert_allclose(e, 1.0 + 0.5 * z)
            assert np.all(e > 0)

    def test_waveform_deterministic_per_item(self):
        z = np.array([0.2, -0.1, 0.5, -0.8])
        a = item_waveform(SMALL, z, 3)
        b = item_waveform(SMALL, z, 3)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.samples.size == SMALL.n_samples

    def test_louder_band_for_larger_latent(self):
        # energy in band j should grow with latent coordinate j
        config = WorldConfig(n_users=4, n_items=4, latent_dim=4, seed=1, noise_level=0.0,
                             tone_level=0.0)
        lo = item_waveform(config, np.array([-0.9, 0.0, 0.0, 0.0]), 0)
        hi = item_waveform(config, np.array([0.9, 0.0, 0.0, 0.0]), 0)
        band = slice(0, 2000)  # first band starts at band_low=400 Hz

        def band_power(wave):
            spec = np.abs(np.fft.rfft(wave.samples)) ** 2
            freqs = np.fft.rfftfreq(wave.samples.size, 1 / config.sample_rate)
            return spec[(freqs >= 400) & (freqs < 2200)].sum()

        assert band_power(hi) > 2.0 * band_power(lo)


class TestAffinity:
    """A user meets an item with probability sigmoid(scale * <u, z> + offset)."""

    @staticmethod
    def met(world):
        """(inner products, interaction mask), both (n_users, n_items)."""
        logs = world.interactions
        mask = np.zeros((world.config.n_users, world.config.n_items), dtype=bool)
        mask[logs.users, logs.items] = True
        return user_latents(world.config) @ world.item_latents.T, mask

    def test_sigmoid_limit_is_thresholding(self):
        config = WorldConfig(n_users=40, n_items=48, affinity_scale=1e8, affinity_offset=0.0,
                             seed=2)
        x, mask = self.met(generate_world(config))
        # Items no user is aligned with get a fallback user; skip them and
        # the pairs too close to the threshold to saturate the sigmoid.
        keep = (np.abs(x) >= 1e-3) & (x.max(axis=0) > 0)
        assert keep.sum() > 1000
        np.testing.assert_array_equal(mask[keep], x[keep] > 0)

    def test_probability_monotone_in_alignment(self):
        x, mask = self.met(generate_world(WorldConfig(n_users=200, n_items=100, seed=2)))
        aligned, opposed = mask[x > 0.5].mean(), mask[x < -0.5].mean()
        assert aligned > 2 * opposed

class TestLabels:
    def test_classification_labels_balanced(self, small_world):
        counts = np.bincount(small_world.labels, minlength=4)
        assert counts.max() - counts.min() <= 1  # within 10% trivially

    def test_label_distribution_near_uniform_across_1000_items(self):
        config = WorldConfig(n_users=10, n_items=1000, latent_dim=4, seed=3, duration=0.125)
        world = generate_world(config)
        freq = np.bincount(world.labels) / 1000.0
        np.testing.assert_allclose(freq, 0.25, atol=0.025)

    def test_oracle_classifier_on_latents_is_perfect(self, small_world):
        oracle = np.argmax(small_world.item_latents[:, : SMALL.n_classes], axis=1)
        np.testing.assert_array_equal(oracle, small_world.labels)

    def test_random_rule_breaks_latent_dependence(self):
        config = WorldConfig(n_users=30, n_items=60, latent_dim=4, seed=4, label_rule="random")
        world = generate_world(config)
        counts = np.bincount(world.labels, minlength=4)
        assert counts.max() - counts.min() <= 1
        oracle = np.argmax(world.item_latents[:, :4], axis=1)
        assert np.mean(oracle == world.labels) < 0.6  # chance is 0.25

    def test_regression_targets_finite_linear(self):
        config = WorldConfig(n_users=20, n_items=30, latent_dim=4, seed=6,
                             task_kind="regression")
        world = generate_world(config)
        assert np.all(np.isfinite(world.labels))
        w = np.ones(4) / 2.0
        np.testing.assert_allclose(world.labels, world.item_latents @ w)


class TestSeparationProperty:
    def test_als_embeddings_align_with_true_latents(self, tmp_path):
        world = generate_world(WorldConfig())
        write_world(world, tmp_path, audio=False)
        m = build_interaction_matrix(tmp_path / "logs.tsv")
        emb = als_fit(m, AlsConfig(seed=11))
        vecs = np.stack([item_vector(emb, i) for i in world.item_ids])
        assert mean_canonical_correlation(vecs, world.item_latents) > 0.8


class TestConfigValidation:
    def test_bad_task_kind(self):
        with pytest.raises(ValueError):
            WorldConfig(task_kind="tagging")

    def test_classes_exceed_latent_dim(self):
        with pytest.raises(ValueError):
            WorldConfig(n_classes=8, latent_dim=4)

    def test_fractional_sample_count(self):
        with pytest.raises(ValueError, match="whole number"):
            WorldConfig(duration=1.00001)

    def test_bad_band_range(self):
        with pytest.raises(ValueError, match="band"):
            WorldConfig(band_low=9000.0)
