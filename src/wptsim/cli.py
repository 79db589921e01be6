"""Command-line front end: run, sweep, and compare experiments.

Subcommands:
    wptsim run      one summary row per policy kind per repetition
    wptsim sweep    one row per (sweep point, repetition, policy)
    wptsim compare  a queue-driven policy against its optimal counterpart
                    on shared seeds, with a gap column appended

Output is plot-ready CSV (default) or JSON lines. Every file embeds the
complete effective configuration: CSV files start with a '#'-prefixed
metadata block, JSON-lines files with one meta object. JSON is strict
RFC 8259: a non-finite float (sum_log_received is -inf when a receiver
harvests nothing) is written as null. The WPTSIM_OUT environment variable
overrides the default output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace

from wptsim.config import (
    ConfigError,
    Experiment,
    experiment_to_mapping,
    load_experiment_file,
    load_preset,
    preset_names,
)
from wptsim.harness import run, sweep
from wptsim.policies import POLICIES, QUEUE_DRIVEN_KINDS
from wptsim.threshold import InfeasibleTargetError

OUT_ENV_VAR = "WPTSIM_OUT"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="experiment config file (YAML)")
    parser.add_argument("--preset", choices=preset_names(), help="named experiment preset")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--slots", type=int, help="override the number of timeslots")
    parser.add_argument("--out", help="output file path")
    parser.add_argument(
        "--format", choices=("csv", "jsonlines"), default="csv", help="output format"
    )
    parser.add_argument("--reps", type=int, help="repetitions with consecutive seeds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptsim",
        description="Beamforming policy simulator for multi-antenna wireless power transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run the configured policies once per repetition"),
        ("sweep", "run the configured one-parameter sweep"),
        ("compare", "run a policy and its optimal counterpart on shared seeds"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def _load(args) -> Experiment:
    if args.config and args.preset:
        raise ConfigError("--config and --preset conflict; pass exactly one")
    if not args.config and not args.preset:
        raise ConfigError("one of --config or --preset is required")
    exp = load_preset(args.preset) if args.preset else load_experiment_file(args.config)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.slots is not None:
        overrides["slots"] = args.slots
    if overrides:
        exp = replace(exp, scenario=replace(exp.scenario, **overrides))
    if args.reps is not None:
        if args.reps < 1:
            raise ConfigError("--reps must be >= 1")
        if exp.sweep is not None:
            exp = replace(exp, sweep=replace(exp.sweep, repetitions=args.reps))
    return exp


def _out_path(args, exp: Experiment) -> str:
    ext = "csv" if args.format == "csv" else "jsonl"
    if args.out:
        return args.out
    directory = os.environ.get(OUT_ENV_VAR, ".")
    return os.path.join(directory, f"{args.command}-{exp.name}.{ext}")


def _finite(value):
    """value with every non-finite float replaced by None: RFC 8259 JSON has no NaN or Infinity."""
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_rows(path: str, rows: list, meta: dict, fmt: str) -> None:
    fields = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    if fmt == "jsonlines":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(_finite({"meta": meta}), allow_nan=False) + "\n")
            for row in rows:
                fh.write(json.dumps(_finite(row), allow_nan=False) + "\n")
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        meta_text = json.dumps(_finite(meta), indent=1, allow_nan=False)
        for line in meta_text.splitlines():
            fh.write(f"# {line}\n")
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)


def cmd_run(args, exp: Experiment) -> list:
    rows = []
    for rep in range(args.reps or 1):
        cfg = replace(exp.scenario, seed=exp.scenario.seed + rep)
        for kind in exp.kinds:
            summary = run(cfg, exp.params, kind)
            row = summary.to_row()
            row["rep"] = rep
            rows.append(row)
    return rows


def cmd_sweep(args, exp: Experiment) -> list:
    if exp.sweep is None:
        raise ConfigError("sweep: the experiment defines no sweep section")
    return sweep(exp.scenario, exp.params, exp.sweep, exp.kinds)


def cmd_compare(args, exp: Experiment) -> list:
    queue_kinds = [k for k in exp.kinds if k in QUEUE_DRIVEN_KINDS]
    if not queue_kinds:
        raise ConfigError(
            "policy.kind: compare needs a queue-driven policy "
            f"(one of {', '.join(QUEUE_DRIVEN_KINDS)})"
        )
    kind = queue_kinds[0]
    reference, metric = POLICIES[kind].compare
    rows = cmd_run(args, replace(exp, kinds=(kind, reference)))
    for near, opt in zip(rows[::2], rows[1::2]):
        near["gap_metric"] = opt["gap_metric"] = metric
        near["gap"] = near[metric] - opt[metric]
        near["b_over_v"] = near["gap_bound"] / near["v"]
    return rows


def _meta(exp: Experiment) -> dict:
    from wptsim import __version__

    return {
        "version": __version__,
        "preset": exp.name,
        "config": experiment_to_mapping(exp),
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep, "compare": cmd_compare}[args.command]
    try:
        exp = _load(args)
        rows = handler(args, exp)
        path = _out_path(args, exp)
        _write_rows(path, rows, _meta(exp), args.format)
    except (ConfigError, InfeasibleTargetError, ValueError, ArithmeticError, OSError) as err:
        print(f"wptsim {args.command}: error: {err}", file=sys.stderr)
        return 1
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
