"""``predict_network`` on the worker pool: whole batches go to the workers
when there are two or more of each, and the rows are the same bits as an
in-process forward whatever the worker or BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfdistill import pool, transfer
from cfdistill.nn.layers import BatchNorm
from cfdistill.nn.network import batch_bounds
from conftest import build_preset
from test_pool import child_env

BATCH = 8
# sample counts: 1, 2 and 5 batches, a ragged last batch, and a last batch
# of one sample that batch_bounds merges into the one before it
SIZES = {"one": 8, "two": 16, "five": 40, "ragged": 21, "merged": 17}

needs_two_workers = pytest.mark.skipif(pool.worker_count() < 2, reason="needs two CPUs")


def desk_model(dtype, seed=3):
    model, _, _ = build_preset("cf_estimator_desk", 8, seed=seed, dtype=dtype)
    rng = np.random.default_rng(seed + 1)
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            layer.running_mean = rng.normal(size=layer.channels).astype(dtype)
            layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels).astype(dtype)
    return model


def grids(n, seed=5):
    return np.random.default_rng(seed).normal(size=(n, 96, 80, 1))


def in_process(model, x, batch_size):
    return np.concatenate([model.forward(x[a:b], train=False, keep_cache=False)[0]
                           for a, b in batch_bounds(len(x), batch_size)])


def shm_blocks():
    return {p.name for p in Path("/dev/shm").iterdir() if p.name.startswith("psm_")}


def rounds(n, batch_size):
    """predict_network's batches, grouped one per worker."""
    bounds, k = batch_bounds(n, batch_size), pool.worker_count()
    return [bounds[r:r + k] for r in range(0, len(bounds), k)]


@pytest.fixture
def pool_calls(monkeypatch):
    """Each pool call predict_network made: its jobs, and the shared-memory
    blocks that existed when it was made."""
    calls = []
    original = pool.starmap

    def recorded(fn, arg_tuples):
        arg_tuples = list(arg_tuples)
        calls.append((arg_tuples, shm_blocks()))
        return original(fn, arg_tuples)

    monkeypatch.setattr(pool, "starmap", recorded)
    return calls


@needs_two_workers
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("size", sorted(SIZES))
def test_pool_rows_equal_in_process_rows(size, dtype, pool_calls):
    model, x = desk_model(dtype), grids(SIZES[size])
    want = in_process(model, x, BATCH)
    before = shm_blocks()
    got = transfer.predict_network(model, x, batch_size=BATCH)
    assert got.dtype == want.dtype == np.dtype(dtype)
    assert got.tobytes() == want.tobytes()
    one_batch = len(batch_bounds(len(x), BATCH)) == 1
    assert len(pool_calls) == (0 if one_batch else len(rounds(len(x), BATCH)))
    assert shm_blocks() <= before


@needs_two_workers
@pytest.mark.parametrize("fails", [False, True], ids=["success", "failure"])
def test_shared_input_is_one_round_of_batches(fails, pool_calls):
    """Each pool call finds one input block, holding that round's batches
    (one per worker), besides the output table; every block is gone at the end."""
    model, x = desk_model("float32"), grids(SIZES["five"])
    if fails:
        x[-1, 0, 0, 0] = np.inf  # only the last round goes bad
    before = shm_blocks()
    try:
        transfer.predict_network(model, x, batch_size=BATCH)
    except FloatingPointError:
        assert fails
    else:
        assert not fails
    assert shm_blocks() <= before
    want = rounds(len(x), BATCH)
    assert len(want) > 1 and len(pool_calls) == len(want)
    for (jobs, live), batch_round in zip(pool_calls, want):
        assert len(jobs) == len(batch_round) <= pool.worker_count()
        assert all(job[1] == jobs[0][1] for job in jobs)  # one input block per round
        (name, [(_, shape, _)]), out = jobs[0][1], jobs[0][3][0]
        assert shape[0] == batch_round[-1][1] - batch_round[0][0]
        assert [job[4] for job in jobs] == [slice(a, b) for a, b in batch_round]
        assert live - before == {name, out}  # earlier rounds' blocks are freed


def test_one_batch_never_touches_the_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pool was used for one batch")

    monkeypatch.setattr(pool, "starmap", refuse)
    monkeypatch.setattr(pool, "_started", refuse)
    model = desk_model("float32")
    for n in (1, 5, BATCH, BATCH + 1):  # BATCH + 1 is one batch after the merge
        x = grids(n)
        got = transfer.predict_network(model, x, batch_size=BATCH)
        assert got.tobytes() == in_process(model, x, BATCH).tobytes()


def predict_in_worker(model, x, batch_size):
    """Runs in a pool worker: its predict_network runs there, in-process."""
    out = transfer.predict_network(model, x, batch_size=batch_size)
    return out, pool.in_worker(), pool._executor is None


def test_call_inside_a_worker_runs_in_process():
    model, x = desk_model("float32"), grids(SIZES["five"])
    [(got, in_worker, no_pool)] = pool.starmap(predict_in_worker, [(model, x, BATCH)])
    assert in_worker and no_pool and not pool.in_worker()
    assert got.tobytes() == in_process(model, x, BATCH).tobytes()


@needs_two_workers
@pytest.mark.parametrize("size", ["two", "five"])
def test_non_finite_activations_reach_the_caller_and_free_every_block(size):
    model, x = desk_model("float64"), grids(SIZES[size])
    x[-1, 0, 0, 0] = np.inf  # only the last batch goes bad
    before = shm_blocks()
    with pytest.raises(FloatingPointError, match="non-finite"):
        transfer.predict_network(model, x, batch_size=BATCH)
    assert shm_blocks() <= before


def test_bad_input_shape_is_the_same_error():
    model = desk_model("float32")
    with pytest.raises(ValueError, match="does not match model"):
        transfer.predict_network(model, np.zeros((SIZES["five"], 96, 81, 1)), batch_size=BATCH)


@needs_two_workers
def test_one_and_two_workers_give_the_same_bits(tmp_path):
    """A child narrowed to one CPU runs every batch in-process; one with two
    CPUs sends them to its two workers; both also under one BLAS thread."""
    tests_dir = str(Path(__file__).resolve().parent)
    outs = {}
    for cpus, blas in ((1, None), (2, None), (2, "1")):
        out = tmp_path / f"cpus{cpus}_blas{blas}.npy"
        script = (
            "import os, sys\nimport numpy as np\n"
            f"sys.path.insert(0, {tests_dir!r})\n"
            f"os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])\n"
            "from cfdistill import pool, transfer\n"
            "from test_predict_pool import desk_model, grids\n"
            f"assert pool.worker_count() == {cpus}\n"
            "if __name__ == '__main__':\n"
            f"    y = transfer.predict_network(desk_model('float32'), grids(40), batch_size={BATCH})\n"
            f"    np.save({str(out)!r}, y)\n"
        )
        env = child_env()
        if blas:
            env.update(OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=300)
        outs[(cpus, blas)] = np.load(out)
    one = outs[(1, None)]
    assert one.dtype == np.float32 and one.shape == (40, 40)
    for key, got in outs.items():
        assert got.tobytes() == one.tobytes(), f"{key} differs from one CPU"
