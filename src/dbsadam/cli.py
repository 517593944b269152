"""Command-line entry point.

Subcommands: train, compare, sweep, resample, report. Every config-file key
is also available as a --key flag that overrides the file, except
output_dir, whose flag is --out. Exit codes: 0 success, 1 config or
validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .data import class_distribution
from .evaluation import aggregate_runs
from .harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    _atomic_open,
    compare_optimizers,
    emit_report,
    load_config,
    prepare_training,
    sensitivity_sweep,
    train,
)


class _Parser(argparse.ArgumentParser):
    # no prefix matching: every key has exactly one flag spelling
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits 2 on usage errors; the interface reserves 2 for runtime
    # failures, so surface usage problems as config errors instead
    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    group = parser.add_argument_group("config overrides")
    for f in fields(ExperimentConfig):
        flag = "--out" if f.name == "output_dir" else f"--{f.name}"
        group.add_argument(flag, dest=f.name, metavar="V", help=f"default: {f.default!r}")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            overrides[f.name] = value
    return load_config(args.config, overrides)


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


def _train_report(config: ExperimentConfig) -> tuple[ComparisonReport, list[str]]:
    run = train(config, config.seeds[0])
    report = ComparisonReport(runs=[run], aggregates={run.optimizer: aggregate_runs([run.metrics])})
    scalars = run.metrics.scalar_metrics()
    return report, [
        f"{run.optimizer} seed={run.seed}: accuracy={scalars['accuracy']:.4f} "
        f"loss={scalars['loss']:.4f} best_epoch={run.best_epoch}/{run.epochs_run}"
    ]


def _compare_report(config: ExperimentConfig) -> tuple[ComparisonReport, list[str]]:
    report = compare_optimizers(config)
    lines = []
    for name, metrics in report.aggregates.items():
        mean, std = metrics["accuracy"]
        lines.append(f"{name}: accuracy {mean:.4f} +/- {std if std is None else round(std, 4)}")
    return report, lines


def _sweep_report(config: ExperimentConfig) -> tuple[ComparisonReport, list[str]]:
    report = sensitivity_sweep(config)
    return report, [
        f"beta={cell['beta']:g} alpha={cell['alpha']:g}: "
        f"accuracy {cell['metrics']['accuracy'][0]:.4f}"
        for cell in report.sweep
    ]


_REPORTS = {"train": _train_report, "compare": _compare_report, "sweep": _sweep_report}


def _emit(report: ComparisonReport | dict, out_dir: str, lines: list[str],
          formats: tuple[str, ...] = ("json", "csv")) -> int:
    """Write the report's files, then print the summary lines and the paths."""
    paths = emit_report(report, out_dir, formats)
    for line in lines + [f"wrote {path}" for path in paths]:
        print(line)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            if not args.out:
                raise ConfigError("--out must be non-empty")
            with open(args.input, encoding="utf-8") as fh:
                payload = json.load(fh)
            return _emit(payload, args.out, [], formats=("csv",))
        config = _config_from_args(args)
        if args.command == "resample":
            return _cmd_resample(config)
        report, lines = _REPORTS[args.command](config)
        return _emit(report, config.output_dir, lines)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
