"""The worker pool: workers run with one BLAS thread, and none outlives the
process that started it, whether that process exits or is killed.

Processes are found through ``/proc``; a pool worker is a child whose
command line carries ``--multiprocessing-fork``.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import cfdistill
from cfdistill import pool

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")


def child_env():
    src = str(Path(cfdistill.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _stat(pid):
    """(state, ppid) of a process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return fields[0].decode(), int(fields[1])


def alive(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def workers_of(pid):
    """Live pool workers whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or (_stat(entry) or ("", -1))[1] != pid:
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if b"--multiprocessing-fork" in fh.read().split(b"\0"):
                    found.append(int(entry))
        except OSError:
            pass
    return [w for w in found if alive(w)]


def wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


class TestWorkers:
    def test_workers_pinned_and_parent_environment_unchanged(self):
        before = {name: os.environ.get(name) for name in pool.PINNED_ENV}
        got = pool.starmap(os.getenv, [(name,) for name in pool.PINNED_ENV])
        assert got == list(pool.PINNED_ENV.values())
        assert {name: os.environ.get(name) for name in pool.PINNED_ENV} == before
        assert len(workers_of(os.getpid())) == pool.worker_count()

    def test_pool_broken_by_a_dead_worker_is_replaced(self):
        with pytest.raises(BrokenProcessPool):
            pool.starmap(os._exit, [(1,)])
        pids = pool.starmap(os.getpid, [()] * 4)
        assert set(pids) <= set(workers_of(os.getpid()))

    def test_worker_refuses_to_start_without_pinned_threads(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with pytest.raises(RuntimeError, match="OPENBLAS_NUM_THREADS=1"):
            pool._init_worker(os.getpid())


class _Block:
    """Stands in for a SharedArrays block: counts how many are open."""

    def __init__(self, live):
        self.live = live
        self.closed = False
        live.append(self)

    def close(self):
        if not self.closed:
            self.closed = True
            self.live.remove(self)


class TestStarmapBlocks:
    def jobs(self, values, live, peak):
        for v in values:
            peak.append(len(live) + 1)
            yield (v,), _Block(live)

    def test_results_in_order_with_at_most_one_block_per_worker(self):
        live, peak = [], []
        got = pool.starmap_blocks(abs, self.jobs(range(-7, 0), live, peak))
        assert got == [7, 6, 5, 4, 3, 2, 1]
        assert max(peak) == min(pool.worker_count(), 7)
        assert live == []

    def test_a_failing_call_raises_after_every_block_is_closed(self):
        live, peak = [], []
        with pytest.raises(ValueError, match="math domain"):
            pool.starmap_blocks(math.sqrt, self.jobs([1.0, -1.0, 4.0, 9.0, 16.0], live, peak))
        assert live == []
        assert max(peak) <= pool.worker_count()

    def test_worker_flag_set_in_workers_only(self):
        assert not pool.in_worker()
        assert pool.starmap(pool.in_worker, [()]) == [True]


class TestSharedArrays:
    def test_workers_read_slices_and_the_block_is_freed(self):
        a, b = np.arange(10.0), np.arange(7, dtype=np.int32)
        with pool.SharedArrays(a, b) as block:
            path = Path("/dev/shm") / block.handle[0]
            got = pool.starmap(pool.load_shared, [(block.handle, slice(2, 5))])[0]
            assert path.exists()
        assert not path.exists()
        assert [x.tolist() for x in got] == [[2.0, 3.0, 4.0], [2, 3, 4]]
        assert got[1].dtype == np.int32

    def test_block_freed_with_its_owner(self):
        block = pool.SharedArrays(np.ones(3))
        path = Path("/dev/shm") / block.handle[0]
        assert path.exists()
        del block
        assert not path.exists()


class TestNoOrphans:
    def test_workers_exit_when_parent_is_killed(self):
        script = ("import os, time\nfrom cfdistill import pool\npool.starmap(os.getpid, [()])\n"
                  "print(pool.worker_count(), flush=True)\ntime.sleep(120)\n")
        proc = subprocess.Popen([sys.executable, "-c", script], env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            n = int(proc.stdout.readline())
            workers = workers_of(proc.pid)
            assert len(workers) == n
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            proc.stdout.close()
        assert wait_until(lambda: not any(alive(w) for w in workers), timeout=5.0)

    def test_no_worker_left_after_als_fit(self, tmp_path):
        config = tmp_path / "world.json"
        config.write_text(json.dumps({"n_users": 1500, "n_items": 30, "duration": 0.125}),
                          encoding="utf-8")
        world = tmp_path / "world"
        env = child_env()
        subprocess.run([sys.executable, "-m", "cfdistill.cli", "generate-world", str(config),
                        str(world)], env=env, check=True, capture_output=True, timeout=120)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cfdistill.cli", "als-fit", str(world / "logs.tsv"),
             str(tmp_path / "items.ftab")], env=env, stderr=subprocess.PIPE, text=True)
        seen = set()
        while proc.poll() is None:
            seen.update(workers_of(proc.pid))
            time.sleep(0.02)
        assert proc.returncode == 0, proc.stderr.read()
        proc.stderr.close()
        assert len(seen) == pool.worker_count()
        assert not [w for w in seen if alive(w)]
