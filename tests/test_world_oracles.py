"""World synthesis against the slow reference it replaced (``reference_world``),
bit for bit.

The fast path changes no arithmetic: the same draws in the same order, the
same products and sums, and FFTs that give each row of a batch the bytes
of a single call.  So every comparison here is exact (``np.array_equal``
or equal file bytes), not a tolerance.
"""

import numpy as np
import pytest

import reference_world as ref
from cfdistill.experiment import _load_labels_csv, write_world
from cfdistill.transfer import TaskSpec
from cfdistill.world import WorldConfig, _synthesis_plan, generate_world, item_waveform

CONFIGS = {
    "dim1_regression": WorldConfig(n_users=8, n_items=5, latent_dim=1, seed=1, duration=0.125,
                                   task_kind="regression"),
    "dim3": WorldConfig(n_users=8, n_items=5, latent_dim=3, n_classes=3, seed=2, duration=0.125),
    "dim4_regression": WorldConfig(n_users=8, n_items=5, latent_dim=4, seed=3, duration=0.125,
                                   task_kind="regression"),
    "dim6_regression": WorldConfig(n_users=8, n_items=5, latent_dim=6, seed=4, duration=0.125,
                                   task_kind="regression"),
    "silent_noise_and_tones": WorldConfig(n_users=8, n_items=5, seed=5, duration=0.125,
                                          noise_level=0.0, tone_level=0.0),
    # 1001 samples: an odd length, so irfft's output length is not 2 * (bins - 1)
    "odd_n_samples": WorldConfig(n_users=8, n_items=5, seed=6, sample_rate=8000,
                                 duration=0.125125, band_low=300.0, band_high=3900.0),
}


@pytest.mark.parametrize("name", CONFIGS)
class TestSynthesisMatchesReference:
    def test_item_waveform_bitwise_equal(self, name):
        config = CONFIGS[name]
        latents = np.random.default_rng(len(name)).uniform(-1.0, 1.0, (4, config.latent_dim))
        for i, latent in enumerate(latents):
            fast = item_waveform(config, latent, i + 10)
            slow = ref.item_waveform(config, latent, i + 10)
            assert fast.sample_rate == slow.sample_rate
            assert np.array_equal(fast.samples, slow.samples)

    def test_generate_world_bitwise_equal(self, name):
        config = CONFIGS[name]
        world = generate_world(config)
        assert len(world.waveforms) == config.n_items
        for i, wave in enumerate(world.waveforms):
            assert wave.samples.size == config.n_samples
            assert np.array_equal(
                wave.samples, ref.item_waveform(config, world.item_latents[i], i).samples
            )


def test_synthesis_plan_is_shared_and_read_only():
    config = CONFIGS["dim3"]
    key = (config.n_samples, config.sample_rate, config.band_low, config.band_high, 3)
    plan = _synthesis_plan(*key)
    assert _synthesis_plan(*key) is plan
    t, omegas, stop = plan
    assert stop.shape == (3, config.n_samples // 2 + 1) and omegas.shape == (3,)
    assert not any(a.flags.writeable for a in plan)


def test_regression_labels_round_trip_exactly(tmp_path):
    world = generate_world(CONFIGS["dim6_regression"])
    write_world(world, tmp_path)
    labels = _load_labels_csv(tmp_path / "labels.csv", TaskSpec("regression"))
    assert list(labels) == world.item_ids
    assert np.array_equal(np.array(list(labels.values())), world.labels)
