"""Interaction matrix construction and the confidence-weighted ALS fit."""

import numpy as np
import pytest

from cfdistill.als import (
    AlsConfig,
    CfEmbedding,
    als_fit,
    als_solve_side,
    build_interaction_matrix,
    item_vector,
    load_embedding,
    save_embedding,
)
from conftest import parsed_matrix
from reference_als import build_interaction_matrix as record_matrix, weighted_loss


def random_matrix(rng, n_users, n_items, density=0.3, max_count=5):
    """Random instance in which every user and item appears at least once."""
    logs = [
        (f"u{u}", f"i{u % n_items}", int(rng.integers(1, max_count + 1)))
        for u in range(n_users)
    ]
    logs += [
        (f"u{i % n_users}", f"i{i}", int(rng.integers(1, max_count + 1)))
        for i in range(n_items)
    ]
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() < density:
                logs.append(
                    (f"u{u}", f"i{i}", int(rng.integers(1, max_count + 1)))
                )
    return record_matrix(logs)


def dense_solve_oracle(fixed, matrix, config, side):
    """Reference solve that materializes the full confidence diagonal."""
    r = matrix.counts.toarray().astype(float)
    if side == "item":
        r = r.T
    n_rows = r.shape[0]
    k = config.n_factors
    out = np.zeros((n_rows, k))
    for u in range(n_rows):
        nnz = int(np.sum(r[u] > 0))
        if nnz == 0:
            continue
        c = np.diag(1.0 + config.alpha * r[u])
        p = (r[u] > 0).astype(float)
        lam = config.reg_lambda * (nnz if config.scale_reg_by_count else 1.0)
        a = fixed.T @ c @ fixed + lam * np.eye(k)
        b = fixed.T @ c @ p
        out[u] = np.linalg.solve(a, b)
    return out


def dense_loss_oracle(matrix, emb, config):
    """Double loop over every (user, item) pair."""
    r = matrix.counts.toarray().astype(float)
    x, y = emb.user_vectors, emb.item_vectors
    total = 0.0
    for u in range(r.shape[0]):
        for i in range(r.shape[1]):
            c = 1.0 + config.alpha * r[u, i]
            p = 1.0 if r[u, i] > 0 else 0.0
            total += c * (p - x[u] @ y[i]) ** 2
    nnz_u = (r > 0).sum(axis=1)
    nnz_i = (r > 0).sum(axis=0)
    if config.scale_reg_by_count:
        total += config.reg_lambda * (
            np.sum(nnz_u * np.sum(x * x, axis=1)) + np.sum(nnz_i * np.sum(y * y, axis=1))
        )
    else:
        total += config.reg_lambda * (np.sum(x * x) + np.sum(y * y))
    return total


class TestBuildInteractionMatrix:
    def test_distinct_pairs_one_entry_each(self, tmp_path):
        logs = [
            ("a", "x", 1),
            ("b", "y", 1),
            ("c", "z", 1),
        ]
        m = parsed_matrix(logs, tmp_path / "logs.tsv")
        assert m.nnz == 3
        assert (m.n_users, m.n_items) == (3, 3)

    def test_duplicates_aggregate_by_sum(self, tmp_path):
        logs = [
            ("u1", "i1", 1),
            ("u1", "i1", 1),
            ("u1", "i2", 1),
        ]
        m = parsed_matrix(logs, tmp_path / "logs.tsv")
        assert m.nnz == 2
        assert m.counts[m.user_ids.index("u1"), m.item_ids.index("i1")] == 2
        assert m.counts[m.user_ids.index("u1"), m.item_ids.index("i2")] == 1

    def test_empty_logs_rejected(self, tmp_path):
        path = tmp_path / "logs.tsv"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(ValueError, match="contains no interactions"):
            build_interaction_matrix(path)

    def test_dimensions_match_distinct_ids(self, tmp_path):
        rng = np.random.default_rng(0)
        logs = [
            (f"u{rng.integers(8)}", f"i{rng.integers(12)}", 1) for _ in range(60)
        ]
        m = parsed_matrix(logs, tmp_path / "logs.tsv")
        assert m.n_users == len({user for user, _, _ in logs})
        assert m.n_items == len({item for _, item, _ in logs})


class TestAlsSolveSide:
    def test_scalar_closed_form(self):
        # One user, one item, one play, one factor:
        # x = (1 + alpha) * y / (y^2 (1 + alpha) + lambda)
        y, lam, alpha = 0.7, 0.3, 5.0
        m = record_matrix([("u", "i", 1)])
        config = AlsConfig(n_factors=1, reg_lambda=lam, alpha=alpha, scale_reg_by_count=False)
        fixed = np.array([[y]])
        x = als_solve_side(fixed, m, config, "user")
        expected = (1 + alpha) * y / (y * y * (1 + alpha) + lam)
        assert x[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_huge_lambda_shrinks_to_zero(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 6, 8)
        fixed = rng.normal(size=(8, 3))
        config = AlsConfig(n_factors=3, reg_lambda=1e12, alpha=2.0)
        x = als_solve_side(fixed, m, config, "user")
        assert np.linalg.norm(x) < 1e-6

    @pytest.mark.parametrize("scale_reg", [True, False])
    def test_matches_dense_oracle_4x4(self, scale_reg):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 4, 4, density=0.5)
        config = AlsConfig(n_factors=2, reg_lambda=0.2, alpha=10.0, scale_reg_by_count=scale_reg)
        fixed = rng.normal(size=(4, 2))
        got = als_solve_side(fixed, m, config, "user")
        want = dense_solve_oracle(fixed, m, config, "user")
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_sparse_trick_equals_dense_up_to_50x50(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n_u = int(rng.integers(5, 51))
            n_i = int(rng.integers(5, 51))
            m = random_matrix(rng, n_u, n_i, density=0.15)
            config = AlsConfig(n_factors=4, reg_lambda=0.1, alpha=20.0)
            for side, n_fixed in [("user", n_i), ("item", n_u)]:
                fixed = rng.normal(size=(n_fixed, 4))
                got = als_solve_side(fixed, m, config, side)
                want = dense_solve_oracle(fixed, m, config, side)
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_solve_exactness_residual(self):
        rng = np.random.default_rng(4)
        m = random_matrix(rng, 20, 30, density=0.2)
        config = AlsConfig(n_factors=5, reg_lambda=0.05, alpha=30.0)
        fixed = rng.normal(size=(30, 5))
        x = als_solve_side(fixed, m, config, "user")
        r = m.counts.toarray().astype(float)
        for u in range(20):
            nnz = int((r[u] > 0).sum())
            if nnz == 0:
                continue
            c = np.diag(1.0 + config.alpha * r[u])
            p = (r[u] > 0).astype(float)
            lam = config.reg_lambda * nnz
            lhs = (fixed.T @ c @ fixed + lam * np.eye(5)) @ x[u]
            rhs = fixed.T @ c @ p
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_degenerate_row_gets_zero_vector(self):
        m = record_matrix([("u0", "i0", 1), ("u1", "i0", 1)])
        # item matrix has an all-zero row only if an item never occurs; force
        # a user row instead by solving the item side: i0 is the only item.
        config = AlsConfig(n_factors=2, reg_lambda=0.1, alpha=1.0)
        fixed = np.ones((2, 2))
        got = als_solve_side(fixed, m, config, "item")
        assert got.shape == (1, 2)

    def test_dimension_mismatch_rejected(self):
        m = record_matrix([("u", "i", 1)])
        config = AlsConfig(n_factors=3)
        with pytest.raises(ValueError, match="columns"):
            als_solve_side(np.ones((1, 2)), m, config, "user")
        with pytest.raises(ValueError, match="rows"):
            als_solve_side(np.ones((5, 3)), m, config, "user")


class TestWeightedLoss:
    def test_all_zero_embeddings(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 5, 6, density=0.4)
        config = AlsConfig(n_factors=3, reg_lambda=0.1, alpha=7.0)
        emb = CfEmbedding(
            item_vectors=np.zeros((6, 3)),
            user_vectors=np.zeros((5, 3)),
            item_ids=m.item_ids,
        )
        # with x = y = 0, each observed entry contributes c_ui, others 0
        expected = float(np.sum(1.0 + config.alpha * m.counts.toarray()[m.counts.toarray() > 0]))
        assert weighted_loss(m, emb, config) == pytest.approx(expected, rel=1e-12)

    def test_exact_fit_has_zero_data_term(self):
        # identity pattern: x_u = e_u, y_i = e_i reproduces p exactly
        logs = [("u0", "i0", 1), ("u1", "i1", 1)]
        m = record_matrix(logs)
        emb = CfEmbedding(
            item_vectors=np.eye(2),
            user_vectors=np.eye(2),
            item_ids=m.item_ids,
        )
        config = AlsConfig(n_factors=2, reg_lambda=0.25, alpha=3.0, scale_reg_by_count=False)
        reg_term = config.reg_lambda * (2.0 + 2.0)  # ||X||_F^2 + ||Y||_F^2
        assert weighted_loss(m, emb, config) == pytest.approx(reg_term, rel=1e-12)

    def test_matches_dense_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        m = random_matrix(rng, 5, 5, density=0.5)
        config = AlsConfig(n_factors=3, reg_lambda=0.15, alpha=12.0)
        emb = CfEmbedding(
            item_vectors=rng.normal(size=(5, 3)),
            user_vectors=rng.normal(size=(5, 3)),
            item_ids=m.item_ids,
        )
        assert weighted_loss(m, emb, config) == pytest.approx(
            dense_loss_oracle(m, emb, config), rel=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        m = record_matrix([("u", "i", 1)])
        emb = CfEmbedding(
            item_vectors=np.ones((2, 3)),
            user_vectors=np.ones((1, 3)),
            item_ids=["i", "j"],
        )
        with pytest.raises(ValueError, match="match"):
            weighted_loss(m, emb, AlsConfig(n_factors=3))


class TestAlsFit:
    def test_zero_iterations_returns_seeded_init(self):
        rng = np.random.default_rng(7)
        m = random_matrix(rng, 6, 9)
        config = AlsConfig(n_factors=4, n_iterations=0, seed=42)
        emb = als_fit(m, config)
        ref = np.random.default_rng(42)
        np.testing.assert_array_equal(
            emb.user_vectors, ref.uniform(-0.01, 0.01, size=(m.n_users, 4))
        )
        np.testing.assert_array_equal(
            emb.item_vectors, ref.uniform(-0.01, 0.01, size=(m.n_items, 4))
        )

    def test_loss_non_increasing_across_sweeps(self):
        rng = np.random.default_rng(8)
        m = random_matrix(rng, 20, 30, density=0.2)
        config = AlsConfig(n_factors=4, reg_lambda=0.1, alpha=10.0, n_iterations=8, seed=3)
        losses = []

        def on_sweep(sweep, users, items):
            emb = CfEmbedding(items, users, m.item_ids)
            losses.append(weighted_loss(m, emb, config))

        als_fit(m, config, on_sweep=on_sweep)
        assert len(losses) == 8
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev * (1 + 1e-9)

    def test_rank_one_instance_ranks_observed_above_unobserved(self):
        # outer product of positive vectors, thresholded to a support set
        rng = np.random.default_rng(9)
        u_true = rng.uniform(0.5, 2.0, size=10)
        v_true = rng.uniform(0.5, 2.0, size=12)
        scores = np.outer(u_true, v_true)
        threshold = np.median(scores)
        logs = [
            (f"u{u}", f"i{i}", 1)
            for u in range(10)
            for i in range(12)
            if scores[u, i] > threshold
        ]
        m = record_matrix(logs)
        config = AlsConfig(n_factors=1, reg_lambda=0.05, alpha=40.0, n_iterations=20, seed=0)
        emb = als_fit(m, config)
        pred = emb.user_vectors @ emb.item_vectors.T
        r = m.counts.toarray()
        observed_mean = pred[r > 0].mean()
        unobserved_mean = pred[r == 0].mean() if (r == 0).any() else -np.inf
        assert observed_mean > unobserved_mean

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(10)
        m = random_matrix(rng, 8, 11)
        config = AlsConfig(n_factors=3, n_iterations=4, seed=99)
        a = als_fit(m, config)
        b = als_fit(m, config)
        np.testing.assert_array_equal(a.item_vectors, b.item_vectors)
        np.testing.assert_array_equal(a.user_vectors, b.user_vectors)


class TestItemVector:
    def test_lookup_default_width(self):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, 4, 5)
        emb = als_fit(m, AlsConfig(n_iterations=1, seed=0))
        v = item_vector(emb, m.item_ids[0])
        assert v.shape == (40,)
        assert np.all(np.isfinite(v))

    def test_unknown_id_raises(self):
        emb = CfEmbedding(np.ones((1, 2)), None, ["known"])
        with pytest.raises(KeyError, match="unknown"):
            item_vector(emb, "missing")

    def test_serialization_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, 5, 7)
        emb = als_fit(m, AlsConfig(n_factors=6, n_iterations=2, seed=1))
        path = tmp_path / "emb.ftab"
        save_embedding(emb, path)
        loaded = load_embedding(path)
        for item_id in m.item_ids:
            np.testing.assert_array_equal(
                item_vector(loaded, item_id), item_vector(emb, item_id)
            )


class TestLogParsing:
    def test_parse_with_and_without_counts(self, tmp_path):
        path = tmp_path / "logs.tsv"
        path.write_text("alice\tsong1\nbob\tsong2\t3\n", encoding="utf-8")
        m = build_interaction_matrix(path)
        assert (m.user_ids, m.item_ids) == (["alice", "bob"], ["song1", "song2"])
        assert m.counts.dtype == np.float64
        assert m.counts.toarray().tolist() == [[1.0, 0.0], [0.0, 3.0]]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only_one_field\n", encoding="utf-8")
        with pytest.raises(ValueError, match="fields"):
            build_interaction_matrix(path)

    def test_bad_count_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\tnot_a_number\n", encoding="utf-8")
        with pytest.raises(ValueError, match="integer"):
            build_interaction_matrix(path)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_factors": 0},
            {"reg_lambda": 0.0},
            {"reg_lambda": -1.0},
            {"alpha": 0.0},
            {"n_iterations": -1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AlsConfig(**kwargs)
