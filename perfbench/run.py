"""cfdistill benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a cfdistill source tree (it needs ``src/cfdistill``).
Every workload runs in child processes with ``src`` on PYTHONPATH; BLAS
threads stay at the library default unless the caller's environment
sets them.  Scratch files go to ``.perfbench/`` under the current
directory.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
three set-up processes (start, import, make the inputs from the seed);
the other metrics come from one measuring process that runs whole jobs
back to back for ``--seconds``.

``--trace 1`` reports the per-layer metrics from three measuring
processes that share ``--seconds``: untraced (for the tracing overhead),
traced, and traced with BLAS pinned to one thread in that child's
environment only (the ``*.blas1`` per-call times).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = [w["name"] for w in spans.SPEC["workloads"]]
METRICS = {0: spans.SPEC["end_to_end"], 1: spans.SPEC["per_layer"]}
SETUP_REPEATS = 3
# Seeds 1-10 tuned this benchmark; claims should also hold on this one.
HELD_OUT_SEED = 4242
RUN_LIMIT_S = 170.0
BLAS1 = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class Run:
    """One benchmark run: its directory, child environment and deadline."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.dir = root / ".perfbench" / workload
        self.started = time.monotonic()
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}

    def child(self, *args, env=None):
        """Run child.py to completion; returns its wall time, or None if it failed."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        cmd = [sys.executable, str(HERE / "child.py"), *args,
               "--workload", self.workload, "--dir", str(self.dir)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env or self.env, stdout=sys.stderr)
        # A blocking wait returns as soon as the child exits; wait(timeout)
        # polls, and would round set-up times up to 50 ms steps.
        deadline = threading.Timer(max(remaining, 1.0), proc.kill)
        deadline.start()
        returncode = proc.wait()
        elapsed = time.perf_counter() - start
        deadline.cancel()
        if returncode != 0:
            reason = "was killed at the deadline" if returncode == -signal.SIGKILL else "failed"
            print(f"perfbench: {args[0]} child {reason} (exit {returncode})", file=sys.stderr)
            return None
        return elapsed

    def setup(self):
        return self.child("setup", "--seed", str(self.seed))

    def measure(self, tag, seconds, trace, env=None):
        """Returns the child's result dict, or None if it did not finish."""
        args = ("measure", "--seconds", str(seconds), "--trace", str(trace), "--tag", tag)
        if self.child(*args, env=env) is None:
            return None
        return json.loads((self.dir / f"result_{tag}.json").read_text(encoding="utf-8"))

    def repeats(self, result):
        """True if every results.csv digest matches earlier runs with the
        same seed, environment record (library versions, BLAS threads, CPU
        count), program sources, default config and benchmark code
        (desk_train only)."""
        digests = {i["sha256"] for i in result["iterations"] if "sha256" in i}
        if not digests:
            return True
        if len(digests) > 1:
            return False
        h = hashlib.sha256(json.dumps([self.seed, result["env"]], sort_keys=True).encode())
        sources = sorted((self.root / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
        for path in [*sources, self.root / "configs" / "default.json"]:
            h.update(path.read_bytes())
        record = self.root / ".perfbench" / "digests" / f"{h.hexdigest()}.txt"
        (digest,) = digests
        if record.is_file():
            return record.read_text(encoding="utf-8") == digest
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(digest, encoding="utf-8")
        return True


def _median(values):
    return float(statistics.median(values))


def end_to_end(result, setup_times):
    iters = result["iterations"]
    return {
        "setup_s": _median(setup_times),
        "wall_s": _median([i["wall_s"] for i in iters]),
        "peak_rss_mb": result["peak_rss_mb"],
        "artifact_mb": _median([i["artifact_mb"] for i in iters]),
        "throughput_per_s": _median([i["work"] / i.get("work_s", i["wall_s"]) for i in iters]),
    }


def per_layer(plain, traced, blas1):
    metrics = dict(traced["layers"])
    for key, value in blas1["layers"].items():
        if key.endswith(("fwd_ms", "bwd_ms")):
            metrics[f"{key}.blas1"] = value
    plain_wall = statistics.mean(i["wall_s"] for i in plain["iterations"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain_wall
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cfdistill" / "__init__.py").is_file():
        print("perfbench: run from the root of a cfdistill source tree (no src/cfdistill here)",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)

    if args.trace == 0:
        setup_times = [run.setup() for _ in range(SETUP_REPEATS)]
        passes = [("run", 0, run.env)]
        seconds = args.seconds
    else:
        setup_times = [run.setup()]
        passes = [("plain", 0, run.env), ("traced", 1, run.env),
                  ("blas1", 1, {**run.env, **BLAS1})]
        seconds = args.seconds / len(passes)
    ready = None not in setup_times
    results = [run.measure(tag, seconds, trace, env) if ready else None
               for tag, trace, env in passes]
    done = [r for r in results if r is not None]
    attempted = sum(r["attempted"] for r in done) + len(results) - len(done)
    failed = sum(r["failed"] for r in done) + len(results) - len(done)
    correct = failed == 0 and all(run.repeats(r) for r in done)
    if args.trace == 1 and correct:
        plain, traced = ({i.get("sha256") for i in r["iterations"]} for r in done[:2])
        correct = plain == traced
    metrics = {}
    if correct:
        if args.trace == 0:
            metrics = end_to_end(done[0], setup_times)
        else:
            metrics = per_layer(*done)
        units = {m["name"]: m["unit"] for m in METRICS[args.trace]}
        if set(metrics) != set(units):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}
    env = {**(done[0]["env"] if done else {}), "workload": args.workload, "seed": args.seed,
           "held_out_seed": HELD_OUT_SEED}
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
