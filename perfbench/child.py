"""One workload in its own process: ``setup`` makes the inputs, ``measure``
runs the timed closed loop (one client, the next job starts when the last
one has ended) and writes a result file for ``run.py``.

    python3 perfbench/child.py setup --workload W --seed N --dir D
    python3 perfbench/child.py measure --workload W --seconds S --trace 0|1 --dir D --tag T

``src`` must be on PYTHONPATH; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import spans
from workloads import WORKLOADS, TrainProbe


def environment():
    """What the numbers were measured on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
    }


def _tree_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def measure(workload, seconds, traced, work_dir, tag):
    wl = WORKLOADS[workload]
    state = wl.load(work_dir / "inputs")
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    probe = TrainProbe() if workload == "desk_train" else None
    if probe:
        probe.install()
    out = work_dir / "out"
    iterations, failed = [], 0
    start = time.perf_counter()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        if probe:
            probe.seconds, probe.samples = 0.0, 0
        try:
            t0 = time.perf_counter()
            with tracer.span(spans.ROOT_SPAN) if tracer else contextlib.nullcontext():
                wl.run(state, out)
            wall = time.perf_counter() - t0
            info = wl.check(state, out)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        info["wall_s"] = wall
        info["artifact_mb"] = _tree_bytes(out) / spans.MB
        if probe:
            info["work"], info["work_s"] = probe.samples, probe.seconds
        iterations.append(info)
        shutil.rmtree(out)
        if time.perf_counter() - start + wall > seconds:
            break
    result = {
        "attempted": len(iterations) + failed,
        "failed": failed,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer:
        tracer.dump(work_dir / f"spans_{tag}.jsonl")
        result["layers"] = spans.layer_metrics(tracer.spans)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tag", default="run")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        inputs = args.dir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.workload].prepare(args.seed, inputs)
        return 0
    result = measure(args.workload, args.seconds, bool(args.trace), args.dir, args.tag)
    (args.dir / f"result_{args.tag}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
