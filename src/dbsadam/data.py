"""Dataset container, CSV ingestion, feature encoding, and the synthetic task.

CSV loading is schema-driven: a schema maps each column to one of the roles
feature_categorical, feature_numeric, label, or ignore. Rows with missing or
unparseable values in used columns are dropped and counted, and the rows
kept are stored column by column: numeric cells parsed once into float
arrays, categorical cells as object arrays of the cell strings. Encoding fits one-hot category sets
and z-score statistics on the training split only.
"""

from __future__ import annotations

import contextlib
import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .numerics import SeededRng

COLUMN_ROLES = ("feature_categorical", "feature_numeric", "label", "ignore")


def _row_indices(indices) -> np.ndarray:
    """indices as int64 rows; a bool mask or a float array is rejected, not truncated to rows."""
    idx = np.asarray(indices)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"subset takes integer row indices, got dtype {idx.dtype}")
    return idx.astype(np.int64, copy=False)


@dataclass
class LabeledDataset:
    """Numeric feature matrix (N, F) with integer class labels (N,)."""

    features: np.ndarray
    labels: np.ndarray
    class_names: list[str]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {self.features.shape[0]} rows"
            )
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("labels outside [0, n_classes)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        idx = _row_indices(indices)
        return LabeledDataset(self.features[idx], self.labels[idx], list(self.class_names))


def class_distribution(data: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-class (counts, percentages); percentages are all zero when empty."""
    counts = np.bincount(data.labels, minlength=data.n_classes).astype(np.int64)
    total = counts.sum()
    if total == 0:
        return counts, np.zeros(data.n_classes)
    return counts, 100.0 * counts / total


@dataclass
class FeatureSchema:
    """Ordered column -> role map for CSV ingestion."""

    roles: dict[str, str]

    def __post_init__(self):
        for col, role in self.roles.items():
            if role not in COLUMN_ROLES:
                raise ValueError(f"column {col!r} has unknown role {role!r}")
        labels = [c for c, r in self.roles.items() if r == "label"]
        if len(labels) != 1:
            raise ValueError(f"schema must declare exactly one label column, found {labels}")
        if not self.feature_columns:
            raise ValueError("schema declares no feature_categorical or feature_numeric column")

    @property
    def label_column(self) -> str:
        return next(c for c, r in self.roles.items() if r == "label")

    @property
    def feature_columns(self) -> list[str]:
        return [c for c, r in self.roles.items() if r.startswith("feature_")]

    @classmethod
    def from_file(cls, path: str) -> "FeatureSchema":
        """Parse a schema file of "column: role" lines (# starts a comment)."""
        roles: dict[str, str] = {}
        with _text_file(path, "schema file") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if ":" not in line:
                    raise ValueError(f"{path}:{lineno}: expected 'column: role'")
                col, role = (part.strip() for part in line.split(":", 1))
                if col in roles:
                    raise ValueError(f"{path}:{lineno}: column {col!r} is listed twice")
                roles[col] = role
        return cls(roles)


@contextlib.contextmanager
def _text_file(path: str, what: str, **kwargs):
    """path opened as UTF-8 text, a leading byte-order mark skipped; a byte
    that does not decode raises ValueError naming `what` and the path."""
    try:
        with open(path, encoding="utf-8-sig", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from exc


def _first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values in order of first appearance, and the position of
    each value among them."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return distinct[order], np.argsort(order)[inverse]


@dataclass
class RawTable:
    """Cleaned CSV columns before encoding.

    columns maps each feature column, in schema order, to one array over the
    kept rows: float64 for feature_numeric, an object array of the cell
    strings for feature_categorical (not fixed-width: no padding to the
    longest cell, and trailing NULs are kept).
    """

    columns: dict[str, np.ndarray]
    labels: np.ndarray
    class_names: list[str]
    raw_row_count: int
    dropped_rows: int

    @property
    def n_samples(self) -> int:
        return self.labels.size

    def subset(self, indices: np.ndarray) -> "RawTable":
        idx = _row_indices(indices)
        return replace(self, columns={c: v[idx] for c, v in self.columns.items()},
                       labels=self.labels[idx], class_names=list(self.class_names))


def load_csv_dataset(
    path: str, schema: FeatureSchema, drop_labels: tuple[str, ...] = ()
) -> RawTable:
    """Read a CSV into a RawTable, dropping rows with missing/invalid values.

    Header names and cells are stripped of surrounding whitespace. A cell is
    missing when empty; a feature_numeric cell is invalid when it does not
    parse as a finite float (`nan`, `inf` and an overflowing `1e400` are
    invalid). Label strings map to dense integer ids in first-appearance
    order. Labels listed in drop_labels are filtered out (their rows are
    excluded, not counted as dropped-for-missingness).
    """
    feature_cols = schema.feature_columns
    numeric_cols = [c for c in feature_cols if schema.roles[c] == "feature_numeric"]
    label_col = schema.label_column
    kept: dict[str, list] = {c: [] for c in (*feature_cols, label_col)}
    raw_count = invalid = 0
    with _text_file(path, "dataset", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        reader.fieldnames = [name.strip() for name in reader.fieldnames]
        missing_cols = [c for c in kept if c not in reader.fieldnames]
        if missing_cols:
            raise ValueError(f"{path}: schema columns absent from header: {missing_cols}")

        for record in reader:
            raw_count += 1
            values = {c: (record.get(c) or "").strip() for c in kept}
            if values[label_col] in drop_labels:
                continue
            try:
                for c in numeric_cols:
                    values[c] = float(values[c])  # an empty cell raises here too
            except ValueError:
                invalid += 1
                continue
            if "" in values.values() or not all(math.isfinite(values[c]) for c in numeric_cols):
                invalid += 1
                continue
            for c, v in values.items():
                kept[c].append(v)

    if not kept[label_col]:
        raise ValueError(f"{path}: no usable rows after cleaning")
    class_names, labels = _first_appearance(np.array(kept.pop(label_col), dtype=object))
    columns = {c: np.array(v, dtype=np.float64 if c in numeric_cols else object) for c, v in kept.items()}
    return RawTable(columns, labels, class_names.tolist(), raw_count, invalid)


@dataclass
class FeatureEncoder:
    """One-hot + z-score transform fitted on a training table.

    fit computes categories, the per-column category list seen at fit time
    (order of first appearance), and numeric_stats, the (mean, std) pairs
    with std floored at 1e-12 so constant columns transform to zeros.
    """

    schema: FeatureSchema
    categories: dict[str, list[str]] = field(default_factory=dict, init=False)
    numeric_stats: dict[str, tuple[float, float]] = field(default_factory=dict, init=False)

    STD_FLOOR = 1e-12

    def fit(self, table: RawTable) -> "FeatureEncoder":
        for col in self.schema.feature_columns:
            values = table.columns[col]
            if self.schema.roles[col] == "feature_categorical":
                self.categories[col] = _first_appearance(values)[0].tolist()
            else:
                self.numeric_stats[col] = (float(values.mean()), max(float(values.std()), self.STD_FLOOR))
        return self

    def transform(self, table: RawTable) -> LabeledDataset:
        blocks: list[np.ndarray] = []
        for col in self.schema.feature_columns:
            values = table.columns[col]
            if self.schema.roles[col] == "feature_categorical":
                block = values[:, None] == np.array(self.categories[col], dtype=object)
                unseen = values.size - int(block.sum())
                if unseen:
                    warnings.warn(
                        f"column {col!r}: {unseen} values unseen at fit time encoded as all-zeros"
                    )
            else:
                mean, std = self.numeric_stats[col]
                block = ((values - mean) / std)[:, None]
            blocks.append(block)
        return LabeledDataset(np.concatenate(blocks, axis=1), table.labels, list(table.class_names))


def to_sequences(features: np.ndarray, chunks: int) -> np.ndarray:
    """Reshape flat rows (N, F) into sequences (N, chunks, ceil(F/chunks)).

    F is zero-padded up to a multiple of the chunk count when needed.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    n, width = features.shape
    per = -(-width // chunks)  # ceil
    padded = np.zeros((n, per * chunks))
    padded[:, :width] = features
    return padded.reshape(n, chunks, per)


def synthetic_benchmark(
    n_samples: int = 1000,
    n_features: int = 12,
    priors: tuple[float, ...] = (0.70, 0.25, 0.05),
    separation: float = 4.0,
    seed: int = 7,
) -> LabeledDataset:
    """Imbalanced Gaussian classification task, deterministic in the seed.

    Class means sit on orthogonal axes scaled so every pair of means is
    exactly `separation` apart in units of the per-dimension noise sigma (1).
    """
    if n_features < len(priors):
        raise ValueError(f"need at least {len(priors)} features for {len(priors)} class axes")
    rng = SeededRng(seed)
    priors_arr = np.asarray(priors, dtype=np.float64)
    priors_arr = priors_arr / priors_arr.sum()
    cumulative = np.cumsum(priors_arr)
    draws = rng.uniform(size=n_samples)
    labels = np.searchsorted(cumulative, draws, side="right")
    labels = np.minimum(labels, len(priors) - 1)

    scale = separation / np.sqrt(2.0)
    means = np.zeros((len(priors), n_features))
    for c in range(len(priors)):
        means[c, c] = scale
    features = means[labels] + rng.normal(size=(n_samples, n_features))
    names = [f"class_{chr(ord('a') + c)}" for c in range(len(priors))]
    return LabeledDataset(features, labels, names)
