"""Command-line entry point.

Subcommands: train, compare, sweep, resample, report. Every config-file key
is also available as a --key flag that overrides the file; --beta and --alpha
are shorthands for ema_beta and alpha_mix. Exit codes: 0 success, 1 config or
validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .data import class_distribution
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    _atomic_open,
    compare_optimizers,
    emit_report,
    load_config,
    prepare_training,
    report_from_json,
    sensitivity_sweep,
    train,
)

_ALIASES = {"beta": "ema_beta", "alpha": "alpha_mix", "seed": "seeds",
            "betas": "beta_grid", "alphas": "alpha_grid"}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the interface reserves 2 for runtime
    # failures, so surface usage problems as config errors instead
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", help="output directory (overrides output_dir)")
    taken = {"config", "out", "input"}
    group = parser.add_argument_group("config overrides")
    for f in fields(ExperimentConfig):
        if f.name not in taken:
            group.add_argument(f"--{f.name}", metavar="V", help=f"default: {f.default!r}")
    for alias, target in _ALIASES.items():
        group.add_argument(f"--{alias}", metavar="V", help=f"alias for --{target}")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict[str, str] = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    for alias, target in _ALIASES.items():
        value = getattr(args, alias, None)
        if value is not None:
            overrides[target] = value
    config = load_config(args.config, overrides)
    if args.out:
        config.output_dir = args.out
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dbsadam", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("train", "single training run (uses the first configured seed)"),
        ("compare", "multi-seed comparison across the configured optimizers"),
        ("sweep", "EMA-decay x mix-weight sensitivity grid"),
        ("resample", "apply the configured resampler to the training split and inspect counts"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_config_flags(p)
    p = sub.add_parser("report", help="regenerate CSV views from an existing report.json")
    p.add_argument("--input", required=True, help="path to report.json")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def _cmd_train(config: ExperimentConfig) -> int:
    run = train(config, config.seeds[0])
    report = ComparisonReport(runs=[run])
    from .evaluation import aggregate_runs

    report.aggregates[run.optimizer] = aggregate_runs([run.metrics])
    paths = emit_report(report, config.output_dir)
    scalars = run.metrics.scalar_metrics()
    print(
        f"{run.optimizer} seed={run.seed}: accuracy={scalars['accuracy']:.4f} "
        f"loss={scalars['loss']:.4f} best_epoch={run.best_epoch}/{run.epochs_run}"
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_compare(config: ExperimentConfig) -> int:
    report = compare_optimizers(config)
    paths = emit_report(report, config.output_dir)
    for name, metrics in report.aggregates.items():
        mean, std = metrics["accuracy"]
        print(f"{name}: accuracy {mean:.4f} +/- {std if std is None else round(std, 4)}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(config: ExperimentConfig) -> int:
    report = sensitivity_sweep(config)
    paths = emit_report(report, config.output_dir)
    for cell in report.sweep:
        acc = cell["metrics"]["accuracy"][0]
        print(f"beta={cell['beta']:g} alpha={cell['alpha']:g}: accuracy {acc:.4f}")
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_resample(config: ExperimentConfig) -> int:
    seed = config.seeds[0]
    train_ds, resampled, _, _ = prepare_training(config, seed)
    before_counts, before_pct = class_distribution(train_ds)
    after_counts, after_pct = class_distribution(resampled)
    print(f"resampler={config.resampler} seed={seed}")
    for c, name in enumerate(train_ds.class_names):
        print(
            f"  {name}: {before_counts[c]} ({before_pct[c]:.1f}%) -> "
            f"{after_counts[c]} ({after_pct[c]:.1f}%)"
        )
    os.makedirs(config.output_dir, exist_ok=True)
    out_path = os.path.join(config.output_dir, "resampled.csv")
    header = [f"x{i}" for i in range(resampled.n_features)] + ["label"]
    rows = np.column_stack([resampled.features, resampled.labels.astype(np.float64)])
    with _atomic_open(out_path) as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.10g}" for v in row[:-1]) + f",{int(row[-1])}\n")
    print(f"wrote {out_path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = report_from_json(args.input)
    paths = emit_report(report, args.out, formats=("csv",))
    for path in paths:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return _cmd_report(args)
        config = _config_from_args(args)
        if args.command == "train":
            return _cmd_train(config)
        if args.command == "compare":
            return _cmd_compare(config)
        if args.command == "sweep":
            return _cmd_sweep(config)
        return _cmd_resample(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
