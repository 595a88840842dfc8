"""Metrics, stratified folds, and the paired comparison test."""

import itertools

import numpy as np
import pytest

from cfdistill.evaluation import (
    accuracy,
    paired_improvement_test,
    r_squared,
    stratified_kfold,
    stratified_split,
)


def plain_split(n, fractions, seed=0):
    """Unstratified shuffled split: the reference that a split over one
    stratum must reproduce bit for bit (regression items, estimator items)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    bounds = np.cumsum([round(n * f) for f in fractions])
    tail = np.split(order[: bounds[-1]], bounds[:-1])
    groups = [order[bounds[-1] :]] + list(tail)
    return [np.sort(g) for g in groups]


class TestAccuracy:
    def test_identical_sequences(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_disjoint_sequences(self):
        assert accuracy([0, 0, 0], [1, 1, 1]) == 0.0

    def test_partial_match(self):
        assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.integers(0, 3, size=17)
            t = rng.integers(0, 3, size=17)
            assert 0.0 <= accuracy(p, t) <= 1.0


class TestRSquared:
    def test_perfect_prediction(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(t, t) == pytest.approx(1.0)

    def test_sign_flip_still_one(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        assert r_squared(-t, t) == pytest.approx(1.0)

    def test_affine_map_with_tiny_noise(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=50)
        p = 3.0 * t - 2.0 + rng.normal(scale=1e-6, size=50)
        assert r_squared(p, t) == pytest.approx(1.0, abs=1e-3)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=30)
        p = rng.normal(size=30)
        assert r_squared(5.0 * p + 1.0, t) == pytest.approx(r_squared(p, t), rel=1e-10)

    def test_zero_truth_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            r_squared(np.arange(4.0), np.ones(4))

    def test_constant_prediction_defined_as_zero(self):
        assert r_squared(np.ones(5), np.arange(5.0)) == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.normal(size=12)
            t = rng.normal(size=12)
            assert 0.0 <= r_squared(p, t) <= 1.0


class TestStratifiedKfold:
    def test_balanced_two_class_fold_counts(self):
        labels = np.array([0] * 50 + [1] * 50)
        folds = stratified_kfold(labels, k=10, seed=0)
        for _, test in folds:
            assert np.sum(labels[test] == 0) == 5
            assert np.sum(labels[test] == 1) == 5

    def test_partition_laws(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=120)
        # top up classes that could fall below k members
        labels[:30] = np.arange(30) % 3
        folds = stratified_kfold(labels, k=5, seed=1)
        all_test = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(all_test), np.arange(120))
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(120))

    def test_per_fold_proportions_within_one_sample(self):
        rng = np.random.default_rng(5)
        labels = np.concatenate([np.zeros(37), np.ones(53)]).astype(int)
        rng.shuffle(labels)
        k = 10
        for _, test in stratified_kfold(labels, k=k, seed=2):
            for cls, total in ((0, 37), (1, 53)):
                count = int(np.sum(labels[test] == cls))
                assert abs(count - total / k) <= 1

    def test_deterministic_given_seed(self):
        labels = np.arange(40) % 4
        a = stratified_kfold(labels, k=4, seed=7)
        b = stratified_kfold(labels, k=4, seed=7)
        for (tr_a, te_a), (tr_b, te_b) in zip(a, b):
            np.testing.assert_array_equal(tr_a, tr_b)
            np.testing.assert_array_equal(te_a, te_b)

    def test_small_class_rejected(self):
        labels = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValueError, match="fewer than"):
            stratified_kfold(labels, k=5, seed=0)


class TestSplits:
    def test_stratified_split_partitions(self):
        labels = np.arange(60) % 3
        train, val, test = stratified_split(labels, (0.2, 0.3), seed=0)
        combined = np.sort(np.concatenate([train, val, test]))
        np.testing.assert_array_equal(combined, np.arange(60))
        assert val.size == 12 and test.size == 18
        for part, frac in ((val, 0.2), (test, 0.3)):
            for cls in range(3):
                assert np.sum(labels[part] == cls) == round(20 * frac)

    def test_one_stratum_matches_plain_split(self):
        sweep = itertools.product(
            range(3, 160), (0, 1, 12345, [3, 0], [7, 17], [2, 17, 1]),
            ((0.2,), (0.5,), (0.2, 0.2), (0.15, 0.25)),
        )
        for n, seed, fractions in sweep:
            got = stratified_split(np.zeros(n, dtype=np.int64), fractions, seed=seed)
            want = plain_split(n, fractions, seed=seed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w, strict=True)

    def test_bad_fractions_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.zeros(10, dtype=int), (0.6, 0.6), seed=0)


class TestPairedImprovementTest:
    def test_hand_computed_case(self):
        # differences 0.5, 1.5, 1.0, 2.0: mean 1.25, sd sqrt(1.25/3),
        # t = 1.25 / (sd / 2) = sqrt(15)
        a = [1.5, 2.5, 2.0, 3.0]
        b = [1.0, 1.0, 1.0, 1.0]
        mean, t, p = paired_improvement_test(a, b)
        assert mean == pytest.approx(1.25)
        assert t == pytest.approx(np.sqrt(15.0), rel=1e-12)
        assert 0.0 < p < 1.0

    def test_identical_lists_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            paired_improvement_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_constant_differences_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            paired_improvement_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

    def test_p_value_against_symmetry(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        _, t_ab, p_ab = paired_improvement_test(a, b)
        _, t_ba, p_ba = paired_improvement_test(b, a)
        assert t_ab == pytest.approx(-t_ba)
        assert p_ab == pytest.approx(p_ba)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_improvement_test([1.0], [1.0, 2.0])

    def test_known_p_value(self):
        # df=3 has a closed-form CDF: 1/2 + (atan(x) + x/(1+x^2))/pi, x = t/sqrt(3)
        _, t, p = paired_improvement_test([1.5, 2.5, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
        x = t / np.sqrt(3.0)
        oracle = 2.0 * (1.0 - (0.5 + (np.arctan(x) + x / (1.0 + x * x)) / np.pi))
        assert p == pytest.approx(oracle, rel=1e-12)
        assert p == pytest.approx(0.0304663, abs=1e-6)
