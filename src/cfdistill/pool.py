"""One process-wide pool of worker processes, each pinned to one BLAS thread.

The pool starts on first use with the ``spawn`` start method and one worker
per CPU this process may run on (``os.sched_getaffinity``).  Every worker
is started with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in its
environment (a BLAS library reads them once, when it loads), so work done
in the pool rounds the same way whatever the parent's thread settings.
The pool shuts down at interpreter exit, and a worker whose parent dies
without shutting it down (SIGKILL) exits on its own.

Large arrays go to and from the workers through shared memory
(:class:`SharedArrays`), not through pickles: the executor pickles tasks
and unpickles results on helper threads, whose malloc arenas keep the
freed buffers as resident memory.  :func:`in_worker` tells code that may
run in a worker not to fan out again.
"""

from __future__ import annotations

import atexit
import collections
import multiprocessing
import os
import threading
import time
import types
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.shared_memory import SharedMemory

import numpy as np

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WATCH_INTERVAL_S = 0.5
ALIGN = 64

_executor = None
_lock = threading.Lock()
_is_worker = False


def worker_count() -> int:
    """Workers the pool runs: the CPUs this process may be scheduled on."""
    return len(os.sched_getaffinity(0))


def _watch_parent(parent_pid):
    while os.getppid() == parent_pid:
        time.sleep(WATCH_INTERVAL_S)
    os._exit(1)


def in_worker() -> bool:
    """Whether this process is one of the pool's workers."""
    return _is_worker


def _init_worker(parent_pid):
    global _is_worker
    for name, value in PINNED_ENV.items():
        if os.environ.get(name) != value:
            raise RuntimeError(f"pool worker started without {name}={value}")
    _is_worker = True
    threading.Thread(target=_watch_parent, args=(parent_pid,), daemon=True).start()


def _started() -> ProcessPoolExecutor:
    """The process-wide pool, with every worker already running."""
    global _executor
    with _lock:
        if _executor is None:
            n = worker_count()
            pool = ProcessPoolExecutor(
                n, mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker, initargs=(os.getpid(),),
            )
            saved = {name: os.environ.get(name) for name in PINNED_ENV}
            os.environ.update(PINNED_ENV)
            try:
                # Workers are spawned on demand, one per submit that finds no
                # idle worker, so n submits now start all n with the pinned
                # environment; none is started later.
                for future in [pool.submit(os.getpid) for _ in range(n)]:
                    future.result()
            finally:
                for name, value in saved.items():
                    if value is None:
                        os.environ.pop(name, None)
                    else:
                        os.environ[name] = value
            _executor = pool
        return _executor


def starmap(fn, arg_tuples):
    """``[fn(*args) for args in arg_tuples]``, each call in a worker (see
    :func:`starmap_blocks`)."""
    return starmap_blocks(fn, ((args, _NO_BLOCK) for args in arg_tuples))


def starmap_blocks(fn, jobs):
    """``[fn(*args) for args, block in jobs]``, each call in a worker, with
    at most :func:`worker_count` calls in flight.

    ``jobs`` is read lazily, one job each time a call may start, so at
    most that many of its ``block`` objects (:class:`SharedArrays`, or
    anything with a ``close()``) exist at once; each block is closed as
    soon as its call has ended.  If a call raises, the calls already
    started are waited for and every block is closed before the error is
    raised.  A pool that a dying worker broke is shut down before the
    error is raised, so the next call starts a new one.
    """
    executor, limit = _started(), worker_count()
    running = collections.deque()
    results = []
    try:
        for args, block in jobs:
            running.append((executor.submit(fn, *args), block))
            if len(running) == limit:
                results.append(_finish(*running.popleft()))
        while running:
            results.append(_finish(*running.popleft()))
    except BrokenProcessPool:
        shutdown()
        raise
    finally:
        # Left here only when something raised: stop the calls that have not
        # started, and wait for the others before freeing their blocks.
        for future, _ in running:
            future.cancel()
        wait([future for future, _ in running])
        for _, block in running:
            block.close()
    return results


_NO_BLOCK = types.SimpleNamespace(close=lambda: None)


def _finish(future, block):
    try:
        return future.result()
    finally:
        block.close()


def shutdown():
    """Stop the workers; the next :func:`starmap` starts a new pool."""
    global _executor
    with _lock:
        if _executor is not None:
            _executor.shutdown()
            _executor = None


class SharedArrays:
    """Copies of ``arrays`` in one block of shared memory, which workers
    read (:func:`load_shared`) and write (:func:`store_shared`) through
    ``handle``.  The block is freed by :meth:`close`, at the end of a
    ``with`` block, or when the object is garbage-collected, whichever
    comes first."""

    def __init__(self, *arrays):
        specs, size = [], 0
        for a in arrays:
            specs.append((size, a.shape, a.dtype.str))
            size += -(-a.nbytes // ALIGN) * ALIGN
        shm = SharedMemory(create=True, size=max(size, 1))
        self.close = weakref.finalize(self, _free, shm)
        for a, (offset, shape, dtype) in zip(arrays, specs):
            np.ndarray(shape, dtype, buffer=shm.buf, offset=offset)[...] = a
        self.handle = (shm.name, specs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _free(shm):
    shm.close()
    shm.unlink()


def load_shared(handle, part=slice(None)):
    """Copies of ``part`` of each array in a :class:`SharedArrays` block."""
    name, specs = handle
    shm = SharedMemory(name=name)
    try:
        return [np.ndarray(shape, dtype, buffer=shm.buf, offset=offset)[part].copy()
                for offset, shape, dtype in specs]
    finally:
        shm.close()


def store_shared(handle, part, *values):
    """Write ``values[i]`` into ``part`` of array i of a :class:`SharedArrays` block."""
    name, specs = handle
    shm = SharedMemory(name=name)
    try:
        for (offset, shape, dtype), value in zip(specs, values):
            np.ndarray(shape, dtype, buffer=shm.buf, offset=offset)[part] = value
    finally:
        shm.close()


atexit.register(shutdown)
