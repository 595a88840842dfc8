"""One process-wide pool of worker processes, each pinned to one BLAS thread,
and one malloc policy for this process and every worker.

The pool starts on first use with the ``spawn`` start method and one worker
per CPU this process may run on (``os.sched_getaffinity``).  Every worker
is started with ``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` in its
environment (a BLAS library reads them once, when it loads), so work done
in the pool rounds the same way whatever the parent's thread settings.
The pool shuts down at interpreter exit, and a worker whose parent dies
without shutting it down (SIGKILL) exits on its own.

Importing this module sets glibc's malloc thresholds (``mallopt``; a C
library without it is left alone).  ``als``, ``transfer`` and ``experiment``
import it, and a worker imports it to run ``_init_worker``, so the calling
process and the workers share one policy: blocks up to ``MMAP_THRESHOLD``
(6 MiB, above every desk-shape activation: 2.3 MB in float32, 4.6 MB in
float64) come from the heap, and freed heap is kept up to
``TRIM_THRESHOLD``, so a train step or an eval forward reuses the pages of
the activations it freed instead of faulting them in again.  Larger blocks
(the world's probability matrix, the interaction columns and their
temporaries at ingest scale) are mapped, so freeing them gives the memory
back.  glibc's defaults move the mmap threshold up to 32 MiB as large blocks
are freed, after which such arrays stay on the heap and a second ingest job
peaks higher than the first.

Large arrays go to and from the workers through shared memory
(:class:`SharedArrays`), not through pickles: the executor pickles tasks
and unpickles results on helper threads, whose malloc arenas keep the
freed buffers as resident memory.  :func:`in_worker` tells code that may
run in a worker not to fan out again.
"""

from __future__ import annotations

import atexit
import ctypes
import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.shared_memory import SharedMemory

import numpy as np

PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# glibc malloc thresholds (see above); setting either one turns off glibc's
# dynamic mmap threshold.
MMAP_THRESHOLD = 6 << 20
TRIM_THRESHOLD = 256 << 20
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, <malloc.h>
WATCH_INTERVAL_S = 0.5
ALIGN = 64

_executor = None
_lock = threading.Lock()
_is_worker = False


def _set_malloc_policy():
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


# At import, not at the pool's first use: the world and the ALS columns are
# allocated before ALS first uses the pool.
_set_malloc_policy()


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
    """``[fn(*args) for args in arg_tuples]``, each call in a worker.

    Every call is submitted at once; the results come back in order.  If a
    call raises, the calls not yet started are cancelled and the started
    ones waited for before the error is raised.  A pool that a dying worker
    broke is shut down before the error is raised, so the next call starts
    a new one.
    """
    executor, futures = _started(), []
    try:
        for args in arg_tuples:
            futures.append(executor.submit(fn, *args))
        return [future.result() for future in futures]
    except BrokenProcessPool:
        shutdown()
        raise
    finally:
        # Only needed when something raised: every future is done otherwise.
        for future in futures:
            future.cancel()
        wait(futures)


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
