"""The worker pool: workers run with one BLAS thread, and none outlives the
process that started it, whether that process exits or is killed; under
glibc, the calling process and the workers reuse freed activation-sized
blocks without page faults and give large freed arrays back.

Processes are found through ``/proc``; a pool worker is a child whose
command line carries ``--multiprocessing-fork``.
"""

import json
import os
import platform
import resource
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
        assert set(pool.PINNED_ENV) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
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


def _faults_after_first_cycle(cycles=5, arrays=4, nbytes=2 << 20):
    """Minor page faults of this thread over cycles 2 to ``cycles``, where a
    cycle allocates and writes ``arrays`` arrays of ``nbytes`` at once (as a
    train step keeps its activations until backward) and then frees them."""
    def cycle():
        held = [np.ones(nbytes // 8) for _ in range(arrays)]
        del held

    cycle()
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for _ in range(cycles - 1):
        cycle()
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the malloc policy is glibc's")
class TestMallocPolicy:
    def test_freed_blocks_are_reused_without_faults_in_this_process(self):
        assert _faults_after_first_cycle() == 0

    def test_freed_blocks_are_reused_without_faults_in_a_worker(self):
        assert pool.starmap(_faults_after_first_cycle, [()]) == [0]

    def test_a_freed_large_array_goes_back_to_the_system(self):
        # In a fresh process, whose heap holds no free block of 16 MiB to serve
        # it from.  Twice: glibc's default raises its mmap threshold to the
        # size of a freed mapped block, so its second array would stay on the heap.
        script = (
            "import numpy as np\nfrom cfdistill import pool\n"
            "def rss_mb():\n"
            "    with open('/proc/self/status', encoding='ascii') as fh:\n"
            "        return next(int(l.split()[1]) for l in fh if l.startswith('VmRSS:')) / 1024\n"
            "for _ in range(2):\n"
            "    big = np.ones(16 << 17)  # 16 MiB, above the mmap threshold\n"
            "    held = rss_mb()\n    del big\n    print(held - rss_mb())\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(), check=True,
                              capture_output=True, text=True, timeout=60)
        drops = [float(line) for line in proc.stdout.split()]
        assert len(drops) == 2 and min(drops) > 15, drops


def _sleep_then(seconds, value):
    time.sleep(seconds)
    return value


def _mark_after(seconds, path):
    """Sleep, then create ``path``; with no path, raise instead."""
    time.sleep(seconds)
    if path is None:
        raise ValueError("planned failure")
    Path(path).touch()


class TestStarmap:
    def test_results_in_order_whatever_order_calls_end(self):
        delays = [0.3, 0.0, 0.2, 0.0, 0.1, 0.0, 0.0]
        got = pool.starmap(_sleep_then, [(d, i) for i, d in enumerate(delays)])
        assert got == list(range(len(delays)))

    def test_a_failing_call_raises_after_the_started_calls_end(self, tmp_path):
        marks = [tmp_path / f"{i}" for i in range(20)]
        calls = [(0.1, None), (1.0, marks[0])] + [(0.05, m) for m in marks[1:]]
        with pytest.raises(ValueError, match="planned failure"):
            pool.starmap(_mark_after, calls)
        ended = set(tmp_path.iterdir())
        assert marks[0] in ended  # started before the failure was seen, and waited for
        assert len(ended) < len(marks)  # the calls not yet started were cancelled
        time.sleep(0.3)
        assert set(tmp_path.iterdir()) == ended  # no call was still running

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
