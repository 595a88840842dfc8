"""Repeat the benchmark over seeds, or compare a parent tree with a change.

    python3 perfbench/compare.py spread [--first-seed 1] [--out F]
    python3 perfbench/compare.py pairs --parent DIR --change DIR [--first-seed 1] [--out F]

Both run this directory's ``run.py`` with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json`` on every workload it lists, for ten
seeds from ``--first-seed`` on, so every run uses identical benchmark code
and settings.

``spread`` runs from the current directory, the root of a source tree.
It prints, for every end-to-end metric, the median and quartiles over the
seeds and the quartile spread as a share of the median, next to the
metric's bound.

``pairs`` runs pair i on seed ``first-seed + i`` from the root of each
tree, alternating which side runs first.  Per workload and metric it prints
each side's median and quartiles, the share of pairs the change won, and
a verdict:

* improved: the change won at least 9 pairs in 10 (ties count for
  neither) and the medians differ by more than the parent's quartile
  spread;
* unresolved: the parent's own quartile spread is wider than the bound,
  and not every run of the change is better than every run of the parent;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unchanged: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spans import SPEC

HERE = Path(__file__).resolve().parent
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUNS = 10


def bench(root, workload, seed):
    """One ``run.py --trace 0`` run from ``root``; returns its metric values."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{root}: {workload} seed {seed} failed: {proc.stdout[-500:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    return tuple(statistics.quantiles(values, n=4))


def verdict(parent, change, better, bound):
    """improved / unchanged / worse / unresolved for paired runs of one metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change)) / len(parent)
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if won >= 0.9 and gain > p_q3 - p_q1:
        return "improved", won
    if (p_q3 - p_q1) > bound * abs(p_med) and not all_better:
        return "unresolved", won
    if -gain > bound * abs(p_med):
        return "worse", won
    return "unchanged", won


def spread(args):
    report = {}
    for workload in WORKLOADS:
        runs = [bench(Path.cwd(), workload, args.first_seed + i) for i in range(RUNS)]
        report[workload] = {}
        print(f"\n{workload} ({len(runs)} seeds)")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for name, spec in METRICS.items():
            values = [r[name] for r in runs]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / abs(med)
            report[workload][name] = {"values": values, "median": med, "q1": q1, "q3": q3,
                                      "spread": share}
            print(f"  {name:18s} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:7.3f} {spec['bound']:6.2f}")
    return report


def pairs(args):
    values = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for i in range(RUNS):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in WORKLOADS:
            for side in order:
                values[workload][side].append(bench(getattr(args, side), workload, seed))
    report = {}
    print("| workload | " + " | ".join(METRICS) + " |")
    print("|---" * (len(METRICS) + 1) + "|")
    for workload, sides in values.items():
        report[workload] = {}
        for name, spec in METRICS.items():
            p = [r[name] for r in sides["parent"]]
            c = [r[name] for r in sides["change"]]
            decided, won = verdict(p, c, spec["better"], spec["bound"])
            report[workload][name] = {"verdict": decided, "won": won, "parent": quartiles(p),
                                      "change": quartiles(c), "parent_values": p,
                                      "change_values": c}
        print(f"| {workload} | " + " | ".join(report[workload][n]["verdict"] for n in METRICS) + " |")
    for workload, rows in report.items():
        print(f"\n{workload}: median [q1, q3] parent -> change, pairs won")
        for name, row in rows.items():
            (pq1, pm, pq3), (cq1, cm, cq3) = row["parent"], row["change"]
            print(f"  {name:18s} {pm:.5g} [{pq1:.5g}, {pq3:.5g}] -> {cm:.5g} [{cq1:.5g}, {cq3:.5g}]"
                  f"  won {row['won']:.0%}  {row['verdict']}")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    one = sub.add_parser("spread")
    two = sub.add_parser("pairs")
    two.add_argument("--parent", type=Path, required=True)
    two.add_argument("--change", type=Path, required=True)
    for p in (one, two):
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = spread(args) if args.mode == "spread" else pairs(args)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
