"""The columnar builder and the direct-LAPACK row solves against the slow
references they replaced (``reference_als``), bit for bit.

The fast path changes no arithmetic: the same products in the same order,
and the LAPACK routines scipy's ``cho_factor``/``cho_solve`` call.  So every
comparison here is exact (``np.array_equal``, equal id lists), not a
tolerance.  The last tests run ALS in child processes, with BLAS pinned to
one thread or not and with one pool worker or two, and require
byte-identical item tables.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import cfdistill
import reference_als as ref
from cfdistill.als import (
    AlsConfig,
    UserItemMatrix,
    _first_appearance,
    als_fit,
    als_solve_side,
    build_interaction_matrix,
    parse_log_file,
)
from cfdistill.experiment import write_world
from cfdistill.world import WorldConfig, generate_world
from log_columns import interactions

# Sparse enough that some of the 60 users never play any of the 20 items.
SPARSE_WORLD = WorldConfig(n_users=60, n_items=20, seed=3, affinity_offset=-4.0, duration=0.125)


def random_logs(rng, n_users, n_items, n_logs, max_count=6):
    """Seeded ``(user_id, item_id, count)`` records in random order, with
    repeated (user, item) pairs."""
    return [
        (f"u{rng.integers(n_users)}", f"i{rng.integers(n_items)}",
         int(rng.integers(1, max_count + 1)))
        for _ in range(n_logs)
    ]


def parsed_matrix(records, path):
    """``records`` written as ``logs.tsv`` lines (a count of 1 with no count
    field), then read back by ``parse_log_file`` into a matrix."""
    path.write_text("".join(
        f"{u}\t{i}\n" if c == 1 else f"{u}\t{i}\t{c}\n" for u, i, c in records
    ), encoding="utf-8")
    return build_interaction_matrix(parse_log_file(path))


def assert_same_matrix(got, want):
    assert got.user_ids == want.user_ids
    assert got.item_ids == want.item_ids
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got.counts, name), getattr(want.counts, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.counts.shape == want.counts.shape


def matrix_with_short_rows(rng, n_users=9, n_items=7):
    """Random counts where user 0 and item 0 have no entries and user 1 and
    item 1 have exactly one."""
    dense = rng.integers(1, 5, size=(n_users, n_items)) * (rng.random((n_users, n_items)) < 0.6)
    dense[0, :] = 0
    dense[:, 0] = 0
    dense[1, :] = 0
    dense[:, 1] = 0
    dense[1, 2] = 3
    dense[3, 1] = 2
    counts = sp.csr_matrix(dense.astype(np.float64))
    return UserItemMatrix(counts, [f"u{u}" for u in range(n_users)],
                          [f"i{i}" for i in range(n_items)])


class TestBuilderMatchesReference:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_records(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        logs = random_logs(rng, 30, 25, 400)
        assert_same_matrix(parsed_matrix(logs, tmp_path / "logs.tsv"),
                           ref.build_interaction_matrix(logs))

    def test_one_record(self, tmp_path):
        logs = [("u", "i", 2)]
        assert_same_matrix(parsed_matrix(logs, tmp_path / "logs.tsv"),
                           ref.build_interaction_matrix(logs))

    def test_bad_count_rejected_like_reference(self):
        logs = [("u", "i", 2), ("v", "i", 0)]
        with pytest.raises(ValueError, match="log count must be >= 1, got 0"):
            ref.build_interaction_matrix(logs)
        with pytest.raises(ValueError, match="log count must be >= 1, got 0"):
            build_interaction_matrix(interactions(logs))

    def test_world_columns(self, tmp_path):
        world = generate_world(SPARSE_WORLD)
        logs = world.interactions
        records = [
            (logs.user_ids[u], logs.item_ids[i], int(c))
            for u, i, c in zip(logs.users, logs.items, logs.counts)
        ]
        got = build_interaction_matrix(logs)
        assert got.n_users < SPARSE_WORLD.n_users  # a user with no interactions is dropped
        assert_same_matrix(got, ref.build_interaction_matrix(records))
        # logs.tsv written from the columns is the record-by-record text,
        # and parses back to the same matrix
        write_world(world, tmp_path)
        text = "".join(f"{u}\t{i}\t{c}\n" for u, i, c in records)
        assert (tmp_path / "logs.tsv").read_text(encoding="utf-8") == text
        assert_same_matrix(build_interaction_matrix(parse_log_file(tmp_path / "logs.tsv")), got)


class TestFirstAppearanceMatchesReference:
    @staticmethod
    def assert_same(codes, ids):
        got_codes, got_ids = _first_appearance(codes, ids)
        want_codes, want_ids = ref.first_appearance(codes, ids)
        assert got_codes.dtype == want_codes.dtype
        assert np.array_equal(got_codes, want_codes)
        assert got_ids == want_ids

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_codes(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_same(rng.integers(0, 40, size=500), [f"id{i}" for i in range(40)])

    def test_unused_ids_are_dropped(self):
        rng = np.random.default_rng(3)
        codes = rng.choice([2, 5, 7, 11, 13], size=60)
        self.assert_same(codes, [f"id{i}" for i in range(20)])

    def test_single_id(self):
        self.assert_same(np.zeros(4, dtype=np.int64), ["only"])

    def test_codes_already_in_order(self):
        self.assert_same(np.repeat(np.arange(6), 3), list("abcdef"))


class TestSolveMatchesReference:
    @pytest.mark.parametrize("scale_reg_by_count", [True, False])
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_rows_bitwise_equal(self, side, scale_reg_by_count):
        rng = np.random.default_rng(11)
        m = matrix_with_short_rows(rng)
        config = AlsConfig(n_factors=5, reg_lambda=0.2, alpha=7.0,
                           scale_reg_by_count=scale_reg_by_count)
        n_fixed = m.n_items if side == "user" else m.n_users
        fixed = rng.normal(size=(n_fixed, 5))
        got = als_solve_side(fixed, m, config, side)
        want = ref.als_solve_side(fixed, m, config, side)
        assert np.array_equal(got, want)
        assert not got[0].any() and got[1].any()  # empty row zero, one-entry row solved

    @pytest.mark.parametrize("scale_reg_by_count", [True, False])
    def test_fit_bitwise_equal(self, scale_reg_by_count):
        logs = random_logs(np.random.default_rng(5), 40, 30, 500)
        m = build_interaction_matrix(interactions(logs))
        config = AlsConfig(n_factors=8, n_iterations=3, seed=4,
                           scale_reg_by_count=scale_reg_by_count)
        emb = als_fit(m, config)
        rng = np.random.default_rng(config.seed)
        users = rng.uniform(-0.01, 0.01, size=(m.n_users, config.n_factors))
        items = rng.uniform(-0.01, 0.01, size=(m.n_items, config.n_factors))
        for _ in range(config.n_iterations):
            users = ref.als_solve_side(items, m, config, "user")
            items = ref.als_solve_side(users, m, config, "item")
        assert np.array_equal(emb.user_vectors, users)
        assert np.array_equal(emb.item_vectors, items)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["user", "item"])
    def test_non_finite_fixed_rejected(self, side, bad):
        m = matrix_with_short_rows(np.random.default_rng(2))
        config = AlsConfig(n_factors=3)
        fixed = np.ones((m.n_items if side == "user" else m.n_users, 3))
        fixed[-1, 1] = bad
        with pytest.raises(ValueError):
            ref.als_solve_side(fixed, m, config, side)
        with pytest.raises(ValueError, match="non-finite"):
            als_solve_side(fixed, m, config, side)


def child_env(**extra):
    """This process's environment with ``src`` on PYTHONPATH, plus ``extra``."""
    src = str(Path(cfdistill.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env.update(extra)
    return env


PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def run_python(args, env):
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def cli_world(tmp_path, n_users, n_items):
    """``generate-world --seed 2`` at the given size; returns logs.tsv and its
    play counts per item."""
    config = tmp_path / "world.json"
    config.write_text(json.dumps({"n_users": n_users, "n_items": n_items, "duration": 0.125}),
                      encoding="utf-8")
    run_python(["-m", "cfdistill.cli", "generate-world", str(config), str(tmp_path / "world"),
                "--seed", "2"], child_env())
    logs = tmp_path / "world" / "logs.tsv"
    items = [line.split("\t")[1] for line in logs.read_text(encoding="utf-8").splitlines()]
    per_item = np.unique(items, return_counts=True)[1]
    return logs, per_item


def cli_item_table(logs, out, env, prelude=""):
    """The bytes ``als-fit`` writes for ``logs``, run in a child after ``prelude``."""
    run_python(["-c", f"import sys\n{prelude}\nfrom cfdistill.cli import main\n"
                      "sys.exit(main(sys.argv[1:]))", "als-fit", str(logs), str(out)], env)
    return out.read_bytes()


@pytest.fixture(scope="module")
def world_1500x30(tmp_path_factory):
    return cli_world(tmp_path_factory.mktemp("world_1500x30"), 1500, 30)


class TestBlasThreadInvariance:
    """``als-fit`` writes the same item table whatever the BLAS thread count of
    the process that calls it, and whatever the pool's worker count: every row
    is solved in a pool worker pinned to one BLAS thread, and a row's
    arithmetic does not depend on which block of rows it was sent with.

    Each world below has item rows whose ``k x nnz @ nnz x k`` product
    (k = 40) is past OpenBLAS's 262,144 multiply cut-off for using more than
    one thread, so a row solved under the default threads could round
    differently.
    """

    @staticmethod
    def assert_same_table_pinned_and_inherited(logs, tmp_path):
        pinned = cli_item_table(logs, tmp_path / "pinned.ftab", child_env(**PINNED))
        inherited = cli_item_table(logs, tmp_path / "inherited.ftab", child_env())
        assert pinned == inherited

    def test_item_table_identical_with_one_and_default_blas_threads(self, tmp_path):
        logs, per_item = cli_world(tmp_path, 600, 40)
        assert per_item.min() > 165
        self.assert_same_table_pinned_and_inherited(logs, tmp_path)

    def test_item_table_identical_with_one_and_default_blas_threads_1500x30(
            self, world_1500x30, tmp_path):
        """This world's item tables differed between the two thread counts
        when the parent solved the rows itself."""
        logs, per_item = world_1500x30
        assert (per_item.min(), per_item.max()) == (500, 644)
        self.assert_same_table_pinned_and_inherited(logs, tmp_path)

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_item_table_identical_with_one_and_two_workers(self, world_1500x30, tmp_path):
        logs, _ = world_1500x30
        one_cpu = ("import os\nfrom cfdistill import pool\n"
                   "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                   "assert pool.worker_count() == 1")
        one = cli_item_table(logs, tmp_path / "one.ftab", child_env(), one_cpu)
        two_cpus = ("import os\nfrom cfdistill import pool\n"
                    "os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:2])\n"
                    "assert pool.worker_count() == 2")
        two = cli_item_table(logs, tmp_path / "two.ftab", child_env(), two_cpus)
        assert one == two

    def test_fit_matches_reference_run_with_blas_pinned(self, world_1500x30, tmp_path):
        """``als_fit`` here equals the slow reference solves run in a child with
        one BLAS thread, bit for bit, past the threading cut-off."""
        logs, _ = world_1500x30
        config = AlsConfig(n_iterations=3)
        tests_dir = str(Path(__file__).resolve().parent)
        script = f"""
import sys
import numpy as np
sys.path.insert(0, {tests_dir!r})
import reference_als as ref
from cfdistill.als import AlsConfig, build_interaction_matrix, parse_log_file
m = build_interaction_matrix(parse_log_file({str(logs)!r}))
config = AlsConfig(n_iterations={config.n_iterations})
rng = np.random.default_rng(config.seed)
users = rng.uniform(-0.01, 0.01, size=(m.n_users, config.n_factors))
items = rng.uniform(-0.01, 0.01, size=(m.n_items, config.n_factors))
for _ in range(config.n_iterations):
    users = ref.als_solve_side(items, m, config, "user")
    items = ref.als_solve_side(users, m, config, "item")
np.save({str(tmp_path / "users.npy")!r}, users)
np.save({str(tmp_path / "items.npy")!r}, items)
"""
        run_python(["-c", script], child_env(**PINNED))
        emb = als_fit(build_interaction_matrix(parse_log_file(logs)), config)
        assert np.array_equal(emb.user_vectors, np.load(tmp_path / "users.npy"))
        assert np.array_equal(emb.item_vectors, np.load(tmp_path / "items.npy"))
