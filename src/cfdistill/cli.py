"""Command-line interface.

Subcommands mirror the pipeline stages:

    generate-world  sample a synthetic world to disk
    als-fit         factorize a log file into an item embedding table
    features        extract mel grids for a directory of audio files
    train-estimator run the pipeline through estimator training
    train-task      train task models (needs an estimator checkpoint)
    run             full pipeline, results.csv at the end
    evaluate        per-regime means and paired t-tests of a results.csv

Errors print a single machine-parsable line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .als import AlsConfig, parse_log_file
from .experiment import (
    ALL_STAGES,
    StageError,
    fit_embedding,
    load_manifest,
    make_config,
    read_audio_dir,
    read_results_csv,
    run_experiment,
    summarize_results,
    write_features,
    write_world,
)
from .features import FeatureConfig
from .world import WorldConfig, generate_world


def _read_config(path, section):
    """A config JSON object; settings nested under ``section`` are also accepted."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object, got {type(config).__name__}")
    return config.get(section, config)


def _cmd_generate_world(args):
    config_dict = _read_config(args.config, "world")
    if args.seed is not None:
        config_dict["seed"] = args.seed
    world = generate_world(make_config(WorldConfig, config_dict, "world"))
    write_world(world, args.out)
    print(
        f"wrote world: {world.config.n_users} users, {world.config.n_items} items, "
        f"{len(world.logs)} interactions -> {args.out}"
    )
    return 0


def _cmd_als_fit(args):
    overrides = _read_config(args.config, "als")
    if args.seed is not None:
        overrides["seed"] = args.seed
    config = make_config(AlsConfig, overrides, "als")
    matrix, _ = fit_embedding(parse_log_file(args.logs), config, args.out)
    print(
        f"factorized {matrix.n_users}x{matrix.n_items} matrix "
        f"({matrix.nnz} non-zeros) into {config.n_factors} factors -> {args.out}"
    )
    return 0


def _cmd_features(args):
    config = make_config(FeatureConfig, _read_config(args.config, "features"), "features")
    grids = write_features(*read_audio_dir(args.audio_dir, config.sample_rate), config, args.out)
    print(f"extracted {len(grids)} mel grids -> {args.out}")
    return 0


# Manifest subcommands: the stages each runs and the line it prints.
MANIFEST_COMMANDS = {
    "train-estimator": (
        ("world", "als", "features", "estimator"),
        "estimator trained -> {out}/checkpoints/cf_estimator.npz",
    ),
    "train-task": (("world", "features", "tasks"), "trained {n} task cells -> {out}/results.csv"),
    "run": (ALL_STAGES, "pipeline complete: {n} result rows -> {out}/results.csv"),
}


def _cmd_manifest(args):
    manifest = load_manifest(args.manifest)
    out_dir = args.out or manifest.get("output_dir")
    if not out_dir:
        raise ValueError("no output directory: pass --out or set output_dir in the manifest")
    stages, summary = MANIFEST_COMMANDS[args.command]
    results = run_experiment(manifest, out_dir, deterministic=args.deterministic, stages=stages)
    print(summary.format(n=len(results), out=Path(out_dir)))
    return 0


def _cmd_evaluate(args):
    rows = read_results_csv(args.results)
    summary = summarize_results(rows)
    for regime in sorted(summary["means"]):
        print(f"mean {regime}: {summary['means'][regime]:.6f}")
    for regime in sorted(summary["tests"]):
        test = summary["tests"][regime]
        if test is None:
            print(f"paired t-test {regime} vs base: not available")
        else:
            print(
                f"paired t-test {regime} vs base: mean_diff={test['mean_diff']:+.6f} "
                f"t={test['t']:.4f} p={test['p']:.4f} n={test['n']}"
            )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cfdistill",
        description="Listening-log embeddings and cross-domain transfer to audio models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-world", help="sample a synthetic world to disk")
    p.add_argument("config", help="world config JSON")
    p.add_argument("out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=_cmd_generate_world)

    p = sub.add_parser("als-fit", help="factorize a listening log file")
    p.add_argument("logs", help="tab-separated log file")
    p.add_argument("out", help="output embedding table path")
    p.add_argument("--config", default=None, help="ALS config JSON")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(fn=_cmd_als_fit)

    p = sub.add_parser("features", help="extract mel grids for an audio directory")
    p.add_argument("audio_dir", help="directory of .wav / .f32 files")
    p.add_argument("out", help="output directory, one <item_id>.ftab per file")
    p.add_argument("--config", default=None, help="feature config JSON")
    p.set_defaults(fn=_cmd_features)

    for name in MANIFEST_COMMANDS:
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} from a manifest")
        p.add_argument("manifest", help="experiment manifest JSON")
        p.add_argument("--out", default=None, help="output directory (overrides manifest)")
        p.add_argument(
            "--deterministic",
            action="store_true",
            help="byte-reproducible outputs (wall times written as 0)",
        )
        p.set_defaults(fn=_cmd_manifest)

    p = sub.add_parser("evaluate", help="summarize a results.csv")
    p.add_argument("results", help="results.csv path")
    p.set_defaults(fn=_cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (StageError, ValueError, KeyError, OSError) as exc:
        print(f"cfdistill: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
