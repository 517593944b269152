"""Experiment runner: config, training loop, multi-seed comparison, reports.

A run is fully determined by (config, seed): the train/test split, validation
carve, resampling, weight initialization, batch order, and dropout masks each
draw from their own substream of the run seed. The split substream depends on
the seed alone, so every optimizer in a comparison sees identical splits —
the pairing assumption behind the seed-paired t-tests.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import numbers
import os
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import resampling  # names looked up per call, so wrappers on the module see it
from .data import (
    FeatureEncoder,
    FeatureSchema,
    LabeledDataset,
    load_csv_dataset,
    synthetic_benchmark,
    to_sequences,
)
from .evaluation import (
    _HEADLINE_FIELDS,
    METRIC_KEYS,
    MetricsReport,
    aggregate_runs,
    confusion_matrix,
    metrics_from_confusion,
    paired_t_test,
    split_indices,
)
from .losses import (
    LossConfig,
    default_class_weights,
    loss_gradient,
    loss_per_sample,
    one_hot,
    softmax,
)
from .models import SequenceNetwork, network_backward, network_forward
from .numerics import SeededRng
from .optimizers import (
    OPTIMIZER_NAMES,
    OPTIMIZER_STEPS,
    OptimizerConfig,
    OptimizerState,
    dbs_adam_step,
)

RESAMPLERS = ("none", "smote_enn", "adasyn")
LOSS_KINDS = ("cross_entropy", "weighted_cross_entropy", "focal")

# substream keys off the run seed
_STREAM_SPLIT = 0
_STREAM_VAL = 1
_STREAM_RESAMPLE = 2
_STREAM_INIT = 3
_STREAM_SHUFFLE = 4
_STREAM_DROPOUT = 5


class ConfigError(ValueError):
    """Invalid configuration or config file; exits with code 1 at the CLI."""


def _typed(key: str, value, target):
    """value as a field of type target: an int field takes an integer, a float
    field any real number, stored as a float (neither takes a bool), and a
    tuple field a list or tuple of its element type, stored as a tuple."""
    if typing.get_origin(target) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list or tuple, got {value!r}")
        return tuple(_typed(key, v, typing.get_args(target)[0]) for v in value)
    kind = {int: numbers.Integral, float: numbers.Real}.get(target, target)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{key} must be {target.__name__}, got {value!r}")
    return target(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, flat (1:1 onto config-file keys); frozen and checked when built."""

    # dataset: "synthetic" or a CSV path (schema_file required for CSV)
    dataset: str = "synthetic"
    schema_file: str = ""
    drop_labels: tuple[str, ...] = ()
    data_seed: int = 7
    synthetic_samples: int = 1000
    synthetic_features: int = 12
    synthetic_priors: tuple[float, ...] = (0.70, 0.25, 0.05)
    synthetic_separation: float = 4.0
    # preprocessing
    sequence_chunks: int = 1
    test_fraction: float = 0.2
    validation_fraction: float = 0.1
    # resampling (training portion only)
    resampler: str = "none"
    smote_k: int = 5
    enn_k: int = 3
    adasyn_k: int = 5
    # model
    hidden1: int = 256
    hidden2: int = 128
    dense_units: int = 64
    dropout_rate: float = 0.40
    # loss
    loss: str = "focal"
    gamma: float = 2.0
    focal_alpha: float = 0.25
    # optimizer
    optimizer: str = "dbs_adam"
    optimizers: tuple[str, ...] = ("adam", "amsgrad", "adamw", "adabound", "dbs_adam")
    base_lr: float = OptimizerConfig.base_lr
    beta1: float = OptimizerConfig.beta1
    beta2: float = OptimizerConfig.beta2
    epsilon: float = OptimizerConfig.epsilon
    weight_decay: float = OptimizerConfig.weight_decay
    adabound_final_lr: float = OptimizerConfig.adabound_final_lr
    adabound_gamma: float = OptimizerConfig.adabound_gamma
    # batch-difficulty scaling
    ema_beta: float = OptimizerConfig.ema_beta
    alpha_mix: float = OptimizerConfig.alpha_mix
    clip_k: float = OptimizerConfig.clip_k
    d_min: float = OptimizerConfig.d_min
    d_max: float = OptimizerConfig.d_max
    norm_epsilon: float = OptimizerConfig.norm_epsilon
    warmup_batches: int = OptimizerConfig.warmup_batches
    # training
    batch_size: int = 32
    max_epochs: int = 30
    patience: int = 6
    seeds: tuple[int, ...] = (42, 123, 456, 789, 1024)
    # sensitivity sweep
    beta_grid: tuple[float, ...] = (0.8, 0.9, 0.95, 0.99)
    alpha_grid: tuple[float, ...] = (0.3, 0.5, 0.7)
    sweep_seeds: int = 2
    # output
    output_dir: str = "out"

    def __post_init__(self) -> None:
        for key, target in _KEY_TYPES.items():
            object.__setattr__(self, key, _typed(key, getattr(self, key), target))
        if not (0 <= self.patience <= self.max_epochs):
            raise ConfigError(
                f"patience must lie in [0, max_epochs={self.max_epochs}], got {self.patience}"
            )
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        if self.data_seed < 0 or min(self.seeds) < 0:
            raise ConfigError(
                f"data_seed and seeds must be >= 0, got {self.data_seed} and {self.seeds}"
            )
        if self.optimizer not in OPTIMIZER_NAMES:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZER_NAMES}")
        for name in self.optimizers:
            if name not in OPTIMIZER_NAMES:
                raise ConfigError(f"unknown optimizer {name!r} in comparison list")
        if len(set(self.optimizers)) != len(self.optimizers):
            raise ConfigError(f"optimizers must be distinct, got {self.optimizers}")
        if self.resampler not in RESAMPLERS:
            raise ConfigError(f"unknown resampler {self.resampler!r}, expected one of {RESAMPLERS}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.loss!r}, expected one of {LOSS_KINDS}")
        for name in ("test_fraction", "validation_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.dataset != "synthetic" and not self.schema_file:
            raise ConfigError("a CSV dataset requires schema_file")
        if not self.output_dir:
            raise ConfigError("output_dir must be non-empty")
        for name in ("batch_size", "max_epochs", "sweep_seeds", "sequence_chunks", "smote_k",
                     "enn_k", "adasyn_k", "hidden1", "hidden2", "dense_units"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.dataset == "synthetic":
            if not math.isfinite(self.synthetic_separation):
                raise ConfigError(f"synthetic_separation must be finite, got {self.synthetic_separation}")
            if self.synthetic_samples < 1:
                raise ConfigError(f"synthetic_samples must be >= 1, got {self.synthetic_samples}")
            if not (self.synthetic_priors and all(0 < p < math.inf for p in self.synthetic_priors)):
                raise ConfigError(f"synthetic_priors must be positive and finite, got {self.synthetic_priors}")
            if self.synthetic_features < len(self.synthetic_priors):
                raise ConfigError(
                    f"synthetic_features={self.synthetic_features} is fewer than the "
                    f"{len(self.synthetic_priors)} classes in synthetic_priors"
                )
        if not 0.0 < self.focal_alpha < math.inf:
            raise ConfigError(f"focal_alpha must be strictly positive and finite, got {self.focal_alpha}")
        try:
            opt_config = _from_shared_fields(self)
            LossConfig(weight=self.focal_alpha, gamma=self.gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # every sweep cell runs dbs_adam with one grid value swapped in
        for key, name in (("beta_grid", "ema_beta"), ("alpha_grid", "alpha_mix")):
            for value in getattr(self, key):
                try:
                    replace(opt_config, **{name: value})
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc


def _from_shared_fields(config: ExperimentConfig) -> OptimizerConfig:
    """The OptimizerConfig of the fields it shares by name with config; its
    own __post_init__ does the validation."""
    return OptimizerConfig(**{f.name: getattr(config, f.name) for f in fields(OptimizerConfig)})


def _parse_value(raw: str, target_type) -> object:
    raw = raw.strip()
    if target_type in (int, float):
        try:
            return target_type(raw)
        except ValueError:
            raise ConfigError(f"expected {target_type.__name__}, got {raw!r}") from None
    if target_type is str:
        return raw
    raise ConfigError(f"unsupported config type {target_type}")


_KEY_TYPES = typing.get_type_hints(ExperimentConfig)


def _parse_key(key: str, raw: str) -> object:
    """The value of one config key from its textual form; a tuple field takes
    a comma-separated list of its element type."""
    if key not in _KEY_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    target = _KEY_TYPES[key]
    if typing.get_origin(target) is tuple:
        elem = typing.get_args(target)[0]
        return tuple(_parse_value(p, elem) for p in raw.split(",") if p.strip())
    return _parse_value(raw, target)


def load_config(path: str | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Build a config from an optional key=value file plus override strings.

    The file is UTF-8 and sets each key at most once; overrides win over it.
    """
    values: dict[str, object] = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.split("#", 1)[0].strip()
                    if not line:
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                    key, raw = (part.strip() for part in line.split("=", 1))
                    if key in values:
                        raise ConfigError(f"{path}:{lineno}: key {key!r} is set twice")
                    values[key] = _parse_key(key, raw)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values.update((key, _parse_key(key, raw)) for key, raw in (overrides or {}).items())
    return ExperimentConfig(**values)


@dataclass
class RunResult:
    """Outcome of one (config, seed) training run."""

    optimizer: str
    seed: int
    train_losses: list[float]
    val_losses: list[float]
    best_epoch: int
    epochs_run: int
    metrics: MetricsReport
    lr_trace: list[float] | None = None
    lr_summary: tuple[float, float, float] | None = None  # (min, mean, max)
    wall_clock: float = 0.0
    tag: str = ""


@dataclass
class ComparisonReport:
    """Aggregated runs, pairwise significance, and optional sweep cells."""

    runs: list[RunResult] = field(default_factory=list)
    aggregates: dict[str, dict[str, tuple[float, float | None]]] = field(default_factory=dict)
    significance: list[dict] = field(default_factory=list)
    sweep: list[dict] = field(default_factory=list)


def _carve_validation(config: ExperimentConfig, seed: int, labels) -> tuple[np.ndarray, np.ndarray]:
    """Stratified (fit, validation) indices into the training portion."""
    return split_indices(labels, config.validation_fraction, SeededRng(seed).child(_STREAM_VAL))


def prepare_split(config: ExperimentConfig, seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified train/test split; a function of (config, seed) only.

    For CSV data the encoder (one-hot categories, z-score statistics) is
    fitted on the training rows left after the validation carve, so neither
    validation nor test rows shape the encoding.
    """
    split_rng = SeededRng(seed).child(_STREAM_SPLIT)
    if config.dataset == "synthetic":
        data = synthetic_benchmark(
            n_samples=config.synthetic_samples,
            n_features=config.synthetic_features,
            priors=config.synthetic_priors,
            separation=config.synthetic_separation,
            seed=config.data_seed,
        )
        train_idx, test_idx = split_indices(data.labels, config.test_fraction, split_rng)
        return data.subset(train_idx), data.subset(test_idx)
    schema = FeatureSchema.from_file(config.schema_file)
    table = load_csv_dataset(config.dataset, schema, config.drop_labels)
    train_idx, test_idx = split_indices(table.labels, config.test_fraction, split_rng)
    train_table = table.subset(train_idx)
    fit_idx, _ = _carve_validation(config, seed, train_table.labels)
    encoder = FeatureEncoder(schema).fit(train_table.subset(fit_idx))
    return encoder.transform(train_table), encoder.transform(table.subset(test_idx))


def _resample_training(config: ExperimentConfig, train_ds: LabeledDataset, rng: SeededRng) -> LabeledDataset:
    if config.resampler == "none":
        return train_ds
    if config.resampler == "smote_enn":
        return resampling.smote_enn(train_ds, config.smote_k, config.enn_k, rng)
    return resampling.adasyn(train_ds, config.adasyn_k, rng)


def prepare_training(
    config: ExperimentConfig, seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset, LabeledDataset]:
    """The data of one run: the stratified train/test split, the validation
    carve-out from the training portion, then resampling of what is left.

    Returns (training rows before resampling, the resampled training set,
    validation set, test set); train() fits the second and the resample
    command writes it.
    """
    train_full, test_ds = prepare_split(config, seed)
    keep_idx, val_idx = _carve_validation(config, seed, train_full.labels)
    fit_ds = train_full.subset(keep_idx)
    resampled = _resample_training(config, fit_ds, SeededRng(seed).child(_STREAM_RESAMPLE))
    return fit_ds, resampled, train_full.subset(val_idx), test_ds


def _make_loss_config(config: ExperimentConfig, train_labels: np.ndarray, n_classes: int) -> LossConfig:
    """The (weight, gamma) of config.loss; weighted cross-entropy weighs each
    class by the inverse of its frequency in the training labels."""
    if config.loss == "weighted_cross_entropy":
        counts = np.bincount(train_labels, minlength=n_classes)
        return LossConfig(weight=default_class_weights(counts))
    if config.loss == "focal":
        return LossConfig(weight=config.focal_alpha, gamma=config.gamma)
    return LossConfig()


def _evaluate(net, xs, labels_1h, loss_config, batch_size) -> tuple[float, np.ndarray, np.ndarray]:
    """Score xs batch by batch in eval mode.

    Returns the mean loss (the batch sums added in order), the per-sample
    losses and the predicted classes.
    """
    n = xs.shape[0]
    per_sample = np.empty(n)
    preds = np.empty(n, dtype=np.int64)
    total = 0.0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        logits, _ = network_forward(net, xs[start:stop], mode="eval")
        per = loss_per_sample(loss_config, softmax(logits), labels_1h[start:stop])
        per_sample[start:stop] = per
        preds[start:stop] = np.argmax(logits, axis=1)
        total += float(per.sum())
    return total / n, per_sample, preds


def train(config: ExperimentConfig, seed: int) -> RunResult:
    """One full training run: split, resample, fit with early stopping,
    restore the best-validation weights, evaluate on the untouched test set."""
    started = time.perf_counter()
    _, train_ds, val_ds, test_ds = prepare_training(config, seed)
    for name, ds in (("training", train_ds), ("validation", val_ds), ("test", test_ds)):
        if ds.n_samples == 0:
            raise ValueError(f"the {name} split has 0 rows; it needs more data or a larger fraction")
    root = SeededRng(seed)

    n_classes = train_ds.n_classes
    x_train = to_sequences(train_ds.features, config.sequence_chunks)
    y_train = one_hot(train_ds.labels, n_classes)
    x_val = to_sequences(val_ds.features, config.sequence_chunks)
    y_val = one_hot(val_ds.labels, n_classes)
    x_test = to_sequences(test_ds.features, config.sequence_chunks)
    y_test = one_hot(test_ds.labels, n_classes)

    net = SequenceNetwork(
        input_size=x_train.shape[2],
        n_classes=n_classes,
        hidden1=config.hidden1,
        hidden2=config.hidden2,
        dense_units=config.dense_units,
        dropout_rate=config.dropout_rate,
        rng=root.child(_STREAM_INIT),
    )
    params = net.params(x_train.shape[1])
    state = OptimizerState(params)
    opt_config = _from_shared_fields(config)
    is_dbs = config.optimizer == "dbs_adam"
    loss_config = _make_loss_config(config, train_ds.labels, n_classes)

    shuffle_rng = root.child(_STREAM_SHUFFLE)
    dropout_rng = root.child(_STREAM_DROPOUT)
    n = x_train.shape[0]
    best_val = math.inf
    best_epoch = 0
    best_params = {k: v.copy() for k, v in params.items()}
    stale = 0
    train_losses: list[float] = []
    val_losses: list[float] = []
    lr_trace: list[float] = []

    epoch = 0
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start : start + config.batch_size]
            try:
                xb, yb = x_train[batch], y_train[batch]
                logits, cache = network_forward(net, xb, mode="train", rng=dropout_rng)
                per = loss_per_sample(loss_config, softmax(logits), yb)
                batch_loss = float(per.mean())
                grads = network_backward(net, cache, loss_gradient(loss_config, logits, yb))
                if is_dbs:
                    lr = dbs_adam_step(params, grads, state, opt_config, batch_loss)
                    lr_trace.append(lr)
                else:
                    OPTIMIZER_STEPS[config.optimizer](params, grads, state, opt_config)
            except Exception as exc:
                raise RuntimeError(
                    f"run aborted (seed={seed}, epoch={epoch}, batch={batch_no}): {exc}"
                ) from exc
            epoch_loss += float(per.sum())
        train_losses.append(epoch_loss / n)

        val_loss, _, _ = _evaluate(net, x_val, y_val, loss_config, config.batch_size)
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    for k in params:
        params[k][...] = best_params[k]

    _, per_sample, preds = _evaluate(net, x_test, y_test, loss_config, config.batch_size)
    cm = confusion_matrix(test_ds.labels, preds, n_classes)
    metrics = metrics_from_confusion(cm, per_sample)

    summary = None
    if lr_trace:
        summary = (min(lr_trace), float(np.mean(lr_trace)), max(lr_trace))
    return RunResult(
        optimizer=config.optimizer,
        seed=seed,
        train_losses=train_losses,
        val_losses=val_losses,
        best_epoch=best_epoch,
        epochs_run=epoch,
        metrics=metrics,
        lr_trace=lr_trace if is_dbs else None,
        lr_summary=summary,
        wall_clock=time.perf_counter() - started,
    )


def _run_seeds(report: ComparisonReport, config: ExperimentConfig,
               tag: str = "") -> tuple[list[RunResult], dict[str, tuple[float, float | None]]]:
    """Train config on each of its seeds in order, append the runs to report,
    and return them with their aggregated metrics."""
    runs = []
    for seed in config.seeds:
        run = train(config, seed)
        run.tag = tag
        runs.append(run)
    report.runs.extend(runs)
    return runs, aggregate_runs([r.metrics for r in runs])


def compare_optimizers(
    config: ExperimentConfig, seeds: tuple[int, ...] | None = None
) -> ComparisonReport:
    """Train every configured optimizer on every seed and compare pairwise.

    Splits depend on the seed alone, so per-seed metric vectors are paired
    across optimizers; each optimizer pair gets one t-test and effect size
    per metric.
    """
    if seeds is not None:
        config = replace(config, seeds=seeds)
    if len(config.optimizers) < 2:
        raise ConfigError("comparison needs at least 2 optimizers")
    if len(config.seeds) < 2:
        raise ConfigError("comparison needs at least 2 seeds")

    report = ComparisonReport()
    by_name: dict[str, list[RunResult]] = {}
    for name in config.optimizers:
        by_name[name], report.aggregates[name] = _run_seeds(report, replace(config, optimizer=name))

    for a, b in itertools.combinations(config.optimizers, 2):
        for metric in METRIC_KEYS:
            va = [r.metrics.scalar_metrics()[metric] for r in by_name[a]]
            vb = [r.metrics.scalar_metrics()[metric] for r in by_name[b]]
            result = paired_t_test(va, vb)
            report.significance.append(
                {"optimizer_a": a, "optimizer_b": b, "metric": metric, "result": result}
            )
    return report


def sensitivity_sweep(config: ExperimentConfig) -> ComparisonReport:
    """Cross-product sweep of the EMA decay (beta_grid) and mix weight
    (alpha_grid) for the difficulty-scaled optimizer; each cell aggregates
    over the first sweep_seeds of the configured seeds."""
    if config.sweep_seeds > len(config.seeds):
        raise ConfigError(
            f"sweep_seeds={config.sweep_seeds} exceeds the {len(config.seeds)} configured seeds"
        )
    if not config.beta_grid or not config.alpha_grid:
        raise ConfigError("sweep grids must be non-empty")
    seeds = config.seeds[: config.sweep_seeds]

    report = ComparisonReport()
    for beta, alpha in itertools.product(config.beta_grid, config.alpha_grid):
        cell_cfg = replace(config, optimizer="dbs_adam", ema_beta=beta, alpha_mix=alpha, seeds=seeds)
        _, metrics = _run_seeds(report, cell_cfg, tag=f"beta={beta:g},alpha={alpha:g}")
        report.sweep.append({"beta": beta, "alpha": alpha, "seeds": list(seeds),
                             "metrics": {k: list(v) for k, v in metrics.items()}})
    return report


def _jsonable(obj):
    """Recursively convert report objects to strictly valid JSON types."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if hasattr(obj, "__dataclass_fields__"):
        return _jsonable(asdict(obj))
    raise TypeError(f"cannot serialize {type(obj)}")


RUNS_CSV_COLUMNS = (
    "optimizer", "seed", "tag", *METRIC_KEYS,
    "best_epoch", "epochs_run", "lr_min", "lr_mean", "lr_max", "wall_clock_s",
)


@contextlib.contextmanager
def _atomic_open(path: str, newline: str | None = None):
    """Open path + ".tmp" for writing and move it over path with os.replace
    once the block succeeds: a failed write leaves the previous file intact
    and no temp file behind."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv_number(value: float | None) -> str:
    # report.json holds a non-finite float as null; its CSV cell is empty
    return "" if value is None else f"{value:.10g}"


def emit_report(report: ComparisonReport | dict, out_dir: str,
                formats: tuple[str, ...] = ("json", "csv")) -> list[str]:
    """Write report.json and/or the flat CSV views; returns the paths written.

    report is a ComparisonReport or the payload of a report.json written
    here; every file renders from that JSON payload. Output is deterministic
    for a given report: keys are sorted in the JSON and rows follow the
    report's run order. Each file is replaced atomically.
    """
    payload = report if isinstance(report, dict) else _jsonable(report)
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    try:
        if "json" in formats:
            path = os.path.join(out_dir, "report.json")
            with _atomic_open(path) as fh:
                json.dump(payload, fh, sort_keys=True, indent=2)
                fh.write("\n")
            written.append(path)
        if "csv" in formats:
            path = os.path.join(out_dir, "runs.csv")
            with _atomic_open(path, newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(RUNS_CSV_COLUMNS)
                for run in payload["runs"]:
                    writer.writerow([
                        run["optimizer"], run["seed"], run["tag"],
                        *(_csv_number(run["metrics"][name]) for name in _HEADLINE_FIELDS.values()),
                        run["best_epoch"], run["epochs_run"],
                        *map(_csv_number, run["lr_summary"] or (None, None, None)),
                        f"{run['wall_clock']:.6f}",
                    ])
            written.append(path)
            trace_path = os.path.join(out_dir, "lr_trace.csv")
            with _atomic_open(trace_path, newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(("optimizer", "seed", "batch", "learning_rate"))
                for run in payload["runs"]:
                    for batch_no, lr in enumerate(run["lr_trace"] or ()):
                        writer.writerow((run["optimizer"], run["seed"], batch_no, _csv_number(lr)))
            written.append(trace_path)
    except OSError as exc:
        raise RuntimeError(f"cannot write report to {out_dir}: {exc}") from exc
    return written
