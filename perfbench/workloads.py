"""The benchmark's workloads: inputs from a seed, one unit of work, checks.

Every workload is a closed loop: one caller runs units back to back. A unit
calls dbsadam's public functions through their modules (`harness.train`,
`resampling.smote_enn`, ...) so the tracer's wrappers see every call. The
resampling workloads call train()'s own resample step,
`harness._resample_training`, so they measure exactly what train() runs.

The paper-shape workloads use the synthetic stand-in for the protocol data
(100 features, class shares 0.846/0.142/0.012), since the real CSV is not in
the repository.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field

import numpy as np

from dbsadam import harness, models, resampling
from dbsadam.numerics import SeededRng

ACCURACY_BAR = 0.90

# train() draws its validation carve and its resample from these substreams
# of the run seed; the resampling workloads reproduce that step
_STREAM_VAL = 1
_STREAM_RESAMPLE = 2

PAPER_DATA = {
    "dataset": "synthetic",
    "synthetic_features": "100",
    "synthetic_priors": "0.846, 0.142, 0.012",
    "sequence_chunks": "1",
}
PAPER_NET = {
    "hidden1": "256", "hidden2": "128", "dense_units": "64", "dropout_rate": "0.40",
    "loss": "focal", "optimizer": "dbs_adam", "resampler": "none",
}


def derive_seed(seed: int, stream: str) -> int:
    """A 31-bit seed for one input stream, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the unit of work run on them."""

    name: str
    kind: str  # "compare", "train", "smote_enn" or "adasyn"
    overrides: dict[str, str] = field(default_factory=dict)
    # relative to the repository root; a config file keeps its own data_seed
    # and the run seeds are drawn from its seeds
    config_file: str = ""
    run_seeds: int = 1

    def config(self, root: str, seed: int) -> harness.ExperimentConfig:
        if self.config_file:
            return harness.load_config(os.path.join(root, self.config_file), self.overrides)
        overrides = {**self.overrides, "data_seed": str(derive_seed(seed, "data"))}
        return harness.load_config(None, overrides)

    def seeds(self, seed: int, config: harness.ExperimentConfig) -> tuple[int, ...]:
        if self.config_file:
            subsets = list(itertools.combinations(config.seeds, self.run_seeds))
            return subsets[derive_seed(seed, "runs") % len(subsets)]
        return tuple(derive_seed(seed, f"run{i}") for i in range(self.run_seeds))

    @property
    def trains(self) -> bool:
        return self.kind in ("compare", "train")


WORKLOADS = {
    w.name: w
    for w in (
        # fixed epoch count (patience = max_epochs) so every unit does the
        # same work. The 0.90 accuracy bar is defined on this config's data
        # and seeds, where 15 epochs give every run at least 0.91; on other
        # data draws some test splits hold every optimizer at 0.90, so the
        # workload seed picks a pair of the config's seeds instead.
        Workload("desk_compare", "compare", {"max_epochs": "15", "patience": "15"},
                 config_file="configs/benchmark.cfg", run_seeds=2),
        Workload("paper_train", "train",
                 {**PAPER_DATA, **PAPER_NET, "synthetic_samples": "4000",
                  "max_epochs": "2", "patience": "2"}),
        Workload("paper_smote_enn", "smote_enn",
                 {**PAPER_DATA, "synthetic_samples": "4000", "resampler": "smote_enn"}),
        Workload("paper_adasyn", "adasyn",
                 {**PAPER_DATA, "synthetic_samples": "12316", "resampler": "adasyn"}),
    )
}


@dataclass
class Inputs:
    workload: Workload
    config: harness.ExperimentConfig
    run_seeds: tuple[int, ...]
    workdir: str


@dataclass
class Output:
    runs: list = field(default_factory=list)  # RunResult per training run
    resampled: object = None  # LabeledDataset from a resampling unit
    # ADASYN: members of each oversampled class, the majority count they
    # aim for, and the rows entering the resampler
    minority_members: dict[int, int] = field(default_factory=dict)
    majority: int = 0
    rows_in: int = 0


def make_inputs(workload: Workload, root: str, seed: int, workdir: str) -> Inputs:
    config = workload.config(root, seed)
    return Inputs(workload, config, workload.seeds(seed, config), workdir)


def warm_up(inputs: Inputs) -> dict[str, int]:
    """Exercise the workload's code paths once at a small size; return the
    input sizes for the run record."""
    cfg = inputs.config
    n_classes = len(cfg.synthetic_priors)
    sizes = {"rows": cfg.synthetic_samples, "features": cfg.synthetic_features}
    if inputs.workload.trains:
        width = -(-cfg.synthetic_features // cfg.sequence_chunks)
        net = models.SequenceNetwork(
            input_size=width, n_classes=n_classes, hidden1=cfg.hidden1,
            hidden2=cfg.hidden2, dense_units=cfg.dense_units,
            dropout_rate=cfg.dropout_rate, rng=SeededRng(0),
        )
        xs = np.zeros((cfg.batch_size, cfg.sequence_chunks, width))
        logits, cache = models.network_forward(net, xs, mode="train", rng=SeededRng(1))
        models.network_backward(net, cache, np.zeros_like(logits))
        sizes.update(units=[cfg.hidden1, cfg.hidden2, cfg.dense_units],
                     parameters=int(sum(p.size for p in net.params().values())))
    else:
        small = harness.synthetic_benchmark(
            n_samples=300, n_features=cfg.synthetic_features,
            priors=(0.6, 0.3, 0.1), seed=0,
        )
        if inputs.workload.kind == "smote_enn":
            resampling.smote_enn(small, cfg.smote_k, cfg.enn_k, SeededRng(0))
        else:
            resampling.adasyn_generate(small, 2, 100, cfg.adasyn_k, SeededRng(0))
    return sizes


def _training_portion(cfg, seed: int):
    train_full, _ = harness.prepare_split(cfg, seed)
    keep, _ = harness.split_indices(
        train_full.labels, cfg.validation_fraction, SeededRng(seed).child(_STREAM_VAL)
    )
    return train_full.subset(keep)


def run_unit(inputs: Inputs) -> Output:
    """One unit of work; everything it calls is in dbsadam."""
    cfg, seeds, kind = inputs.config, inputs.run_seeds, inputs.workload.kind
    if kind == "compare":
        report = harness.compare_optimizers(cfg, seeds=seeds)
        with tempfile.TemporaryDirectory(dir=inputs.workdir) as tmp:
            harness.emit_report(report, tmp)
        return Output(runs=list(report.runs))
    if kind == "train":
        return Output(runs=[harness.train(cfg, seeds[0])])
    data = _training_portion(cfg, seeds[0])
    counts = np.bincount(data.labels, minlength=data.n_classes)
    majority = int(counts.max())
    # the resample step of train(), with the configured resampler
    resampled = harness._resample_training(cfg, data, SeededRng(seeds[0]).child(_STREAM_RESAMPLE))
    if kind == "smote_enn":
        return Output(resampled=resampled)
    members = {c: int(n) for c, n in enumerate(counts) if n < majority}
    return Output(resampled=resampled, minority_members=members,
                  majority=majority, rows_in=data.n_samples)


class EnnProbe:
    """Records the class counts entering and leaving every ENN call, so the
    checks can see SMOTE's output before ENN cleans it. One call per
    resample; it adds nothing measurable to a unit."""

    def __init__(self):
        self.calls: list[tuple[np.ndarray, np.ndarray, bool]] = []
        self._original = None

    def install(self) -> None:
        self._original = original = resampling.enn_filter

        def probed(data, *args, **kwargs):
            cleaned, removed = original(data, *args, **kwargs)
            finite = bool(np.isfinite(data.features).all() and np.isfinite(cleaned.features).all())
            self.calls.append((
                np.bincount(data.labels, minlength=data.n_classes),
                np.bincount(cleaned.labels, minlength=data.n_classes),
                finite,
            ))
            return cleaned, removed

        resampling.enn_filter = probed

    def restore(self) -> None:
        resampling.enn_filter = self._original

    def take(self) -> list[tuple[np.ndarray, np.ndarray, bool]]:
        calls, self.calls = self.calls, []
        return calls


def check(inputs: Inputs, output: Output, enn_calls) -> list[str]:
    """Failed checks of one unit's outputs; an empty list means correct."""
    failures: list[str] = []
    kind = inputs.workload.kind
    for run in output.runs:
        losses = [*run.train_losses, *run.val_losses, run.metrics.mean_loss]
        if not all(math.isfinite(v) for v in losses):
            failures.append(f"{run.optimizer} seed {run.seed}: non-finite loss")
        if kind == "compare" and run.metrics.accuracy < ACCURACY_BAR:
            failures.append(
                f"{run.optimizer} seed {run.seed}: accuracy {run.metrics.accuracy:.3f} "
                f"< {ACCURACY_BAR}"
            )
    if inputs.config.resampler == "smote_enn" and not enn_calls:
        failures.append("no ENN call seen")
    for before, after, finite in enn_calls:
        if not finite:
            failures.append("non-finite rows around ENN")
        if len(set(before.tolist())) != 1:
            failures.append(f"classes not at the majority count before ENN: {before.tolist()}")
        if (after > before).any():
            failures.append(f"ENN added rows: {before.tolist()} -> {after.tolist()}")
    data = output.resampled
    if data is not None:
        if not np.isfinite(data.features).all():
            failures.append("non-finite resampled rows")
        counts = np.bincount(data.labels, minlength=data.n_classes)
        for c, m in output.minority_members.items():
            # ADASYN rounds each member's share half-up, so a class ends at
            # most half a row per member away from the majority count
            if abs(int(counts[c]) - output.majority) > m / 2:
                failures.append(f"class {c}: {int(counts[c])} rows, majority {output.majority}")
    return failures


def digest(output: Output) -> str:
    """sha256 of the unit's loss sequences, metrics and resampled arrays."""
    h = hashlib.sha256()
    for run in output.runs:
        for seq in (run.train_losses, run.val_losses, run.lr_trace or []):
            h.update(np.asarray(seq, dtype=np.float64).tobytes())
        h.update(json.dumps(asdict(run.metrics), sort_keys=True).encode())
    if output.resampled is not None:
        h.update(np.ascontiguousarray(output.resampled.features))
        h.update(np.ascontiguousarray(output.resampled.labels))
    return h.hexdigest()


def summary(output: Output, enn_calls) -> dict[str, float]:
    """What the end-to-end metrics need from one unit's outputs."""
    if output.runs:
        return {
            "epochs": sum(r.epochs_run for r in output.runs),
            "train_s": sum(r.wall_clock for r in output.runs),
            "accuracy_min": min(r.metrics.accuracy for r in output.runs),
        }
    # class balance after oversampling, before any ENN cleaning
    if enn_calls:
        counts = enn_calls[-1][0]
    else:
        counts = np.bincount(output.resampled.labels, minlength=output.resampled.n_classes)
    return {"balance": float(counts.min() / counts.max())}
