"""Experiment runner: config, training loop, multi-seed comparison, reports.

A run is fully determined by (config, seed): the train/test split, validation
carve, resampling, weight initialization, batch order, and dropout masks each
draw from their own substream of the run seed. The split substream depends on
the seed alone, so every optimizer in a comparison sees identical splits —
the pairing assumption behind the seed-paired t-tests.

train, compare_optimizers and sensitivity_sweep share one runner, which
prepares each seed's data once, in the calling process, and trains the
(config, seed) runs from it. On Linux it trains them in a pool of forked
worker processes, one per CPU that BLAS leaves free (numerics._free_cpus:
the CPUs divided by the first positive OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS, by all of them when none is set); the
same rule sets the threads of the resampling's neighbour search. For one run, or with BLAS at
its default of one thread per CPU, that is one process: the runs train in
order in this process. Every run is a pure function of (config, seed), so
results match either way.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import os
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import numerics  # _init_worker marks the pool worker there
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
    _loss_and_gradient,
    default_class_weights,
    loss_per_sample,
    one_hot,
    softmax,
)
from .models import SequenceNetwork, network_backward, network_forward
from .numerics import SeededRng, _free_cpus, _set_typed_fields
from .numerics import _BLAS_THREAD_VARS  # noqa: F401  the variables _worker_count reads
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
        try:
            _set_typed_fields(self, _KEY_TYPES)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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

    The file is UTF-8, with or without a byte-order mark, and sets each key
    at most once; overrides win over it.
    """
    values: dict[str, object] = {}
    if path:
        try:
            with open(path, encoding="utf-8-sig") as fh:
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
    validation set, test set); a run fits the second and the resample
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
    return _train_runs([config], (seed,))[0][0]


def _fit(config: ExperimentConfig, seed: int,
         sets: tuple[LabeledDataset, LabeledDataset, LabeledDataset], prepare_s: float) -> RunResult:
    """Fit one run on its prepared sets and score it; its wall_clock is
    prepare_s, the time the sets took, plus the fit's own time."""
    started = time.perf_counter()
    train_ds, val_ds, test_ds = sets
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
    # the optimizer streams the few contiguous runs of the trained weights
    steps = x_train.shape[1]
    params = net.segments(steps)
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
                per, d_logits = _loss_and_gradient(loss_config, logits, yb)
                batch_loss = float(per.mean())
                grads = net.segments(steps, network_backward(net, cache, d_logits))
                if is_dbs:
                    lr = dbs_adam_step(params, grads, state, opt_config, batch_loss)
                    lr_trace.append(lr)
                else:
                    OPTIMIZER_STEPS[config.optimizer](params, grads, state, opt_config)
                # one gradient vector alive at a time: the next step's is new
                del grads
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
        wall_clock=prepare_s + time.perf_counter() - started,
    )


def _worker_count(jobs: int) -> int:
    """Processes to train `jobs` runs in: one per CPU that BLAS leaves free
    (numerics._free_cpus, the rule that also sets the neighbour search's
    threads), at most one per job.

    More processes than cpus // BLAS threads contend for the cores: at paper
    shape on 2 CPUs, 2 workers with 2-thread BLAS ran 2-4x slower than one
    process. The pool forks, so platforms other than Linux get one process.
    """
    if jobs < 2:
        return 1
    return min(jobs, _free_cpus())


# set in each worker process by _init_worker: the configs and prepared sets of its pool
_worker_jobs: tuple[list[ExperimentConfig], dict] | None = None


def _init_worker(configs: list[ExperimentConfig], prepared: dict) -> None:
    global _worker_jobs
    _worker_jobs = (configs, prepared)
    numerics._in_pool_worker = True


def _fit_job(index: int, seed: int) -> RunResult:
    configs, prepared = _worker_jobs
    return _fit(configs[index], seed, *prepared[seed])


def _train_runs(configs: list[ExperimentConfig], seeds: tuple[int, ...]) -> list[list[RunResult]]:
    """Train every config on every seed; returns each config's runs in seed
    order.

    The configs differ only in what the fit reads, so each seed's sets are
    prepared once, from configs[0], in this process: every resample runs
    here, and each run's wall_clock counts its seed's preparation. The fits
    run in a pool of _worker_count forked processes, which inherit the sets
    without pickling, or in order here when that is one. The first failing
    run in job order aborts the call, and no worker outlives it.
    """
    prepared = {}
    for seed in seeds:
        started = time.perf_counter()
        _, *sets = prepare_training(configs[0], seed)
        for name, ds in zip(("training", "validation", "test"), sets):
            if ds.n_samples == 0:
                raise ValueError(f"the {name} split has 0 rows; it needs more data or a larger fraction")
        prepared[seed] = (tuple(sets), time.perf_counter() - started)
    jobs = [(index, seed) for index in range(len(configs)) for seed in seeds]
    workers = _worker_count(len(jobs))
    if workers == 1:
        runs = [_fit(configs[index], seed, *prepared[seed]) for index, seed in jobs]
    else:
        # imported here: about 22 ms that train() and the single-process path never need
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                       initializer=_init_worker, initargs=(configs, prepared))
        try:
            futures = [executor.submit(_fit_job, index, seed) for index, seed in jobs]
            runs = [future.result() for future in futures]
        finally:
            # drop the jobs not yet started and wait for every worker to exit
            executor.shutdown(cancel_futures=True)
    return [runs[i : i + len(seeds)] for i in range(0, len(runs), len(seeds))]


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

    by_name = dict(zip(config.optimizers, _train_runs(
        [replace(config, optimizer=name) for name in config.optimizers], config.seeds)))
    report = ComparisonReport(runs=[run for runs in by_name.values() for run in runs])
    for name, named_runs in by_name.items():
        report.aggregates[name] = aggregate_runs([r.metrics for r in named_runs])

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

    cells = list(itertools.product(config.beta_grid, config.alpha_grid))
    cell_runs = _train_runs([replace(config, optimizer="dbs_adam", ema_beta=beta, alpha_mix=alpha, seeds=seeds)
                             for beta, alpha in cells], seeds)
    report = ComparisonReport(runs=[run for runs in cell_runs for run in runs])
    for (beta, alpha), runs in zip(cells, cell_runs):
        for run in runs:
            run.tag = f"beta={beta:g},alpha={alpha:g}"
        metrics = aggregate_runs([r.metrics for r in runs])
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
                writer.writerow(("optimizer", "seed", "tag", "batch", "learning_rate"))
                for run in payload["runs"]:
                    for batch_no, lr in enumerate(run["lr_trace"] or ()):
                        writer.writerow((run["optimizer"], run["seed"], run["tag"], batch_no, _csv_number(lr)))
            written.append(trace_path)
    except OSError as exc:
        raise RuntimeError(f"cannot write report to {out_dir}: {exc}") from exc
    return written
