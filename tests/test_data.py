import csv
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from dbsadam.data import (
    FeatureEncoder,
    FeatureSchema,
    LabeledDataset,
    class_distribution,
    load_csv_dataset,
    synthetic_benchmark,
    to_sequences,
)
from dbsadam.numerics import SeededRng
from addis_csv import write_addis_like_csv


class TestLabeledDataset:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 2)), np.zeros(4, dtype=int), ["a"])

    def test_label_range_validation(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 5]), ["a", "b"])

    def test_subset(self):
        data = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([0, 1, 0, 1]), ["a", "b"])
        sub = data.subset(np.array([2, 0]))
        assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.labels, [0, 0])

    def test_subset_rejects_a_mask_or_float_indices(self):
        # converted to int64, the mask's True/False would select rows 1 and 0
        data = synthetic_benchmark(n_samples=10, seed=1)
        for indices in (data.labels == 0, np.array([0.0, 1.5])):
            with pytest.raises(ValueError, match="integer row indices"):
                data.subset(indices)
        class_0 = data.subset(np.flatnonzero(data.labels == 0))
        assert class_0.n_samples == 7 and not class_0.labels.any()
        assert data.subset([]).n_samples == 0


class TestClassDistribution:
    def test_published_four_class_counts(self):
        labels = np.repeat([0, 1, 2, 3], [3956, 6294, 677, 24])
        data = LabeledDataset(np.zeros((labels.size, 1)), labels, ["u", "sl", "se", "f"])
        counts, pct = class_distribution(data)
        assert counts.tolist() == [3956, 6294, 677, 24]
        assert np.allclose(np.round(pct, 2), [36.12, 57.47, 6.18, 0.22])
        assert pct.sum() == pytest.approx(100.0, abs=1e-9)

    def test_empty_dataset(self):
        data = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ["a", "b"])
        counts, pct = class_distribution(data)
        assert counts.tolist() == [0, 0]
        assert pct.tolist() == [0.0, 0.0]

    def test_single_class(self):
        data = LabeledDataset(np.zeros((5, 1)), np.zeros(5, dtype=int), ["only"])
        counts, pct = class_distribution(data)
        assert counts.tolist() == [5]
        assert pct.tolist() == [100.0]


SCHEMA = FeatureSchema({
    "color": "feature_categorical",
    "size": "feature_numeric",
    "note": "ignore",
    "outcome": "label",
})


def write_csv(path, rows):
    path.write_text("color,size,note,outcome\n" + "\n".join(rows) + "\n", encoding="utf-8")


class TestFeatureSchema:
    def test_column_listed_twice_rejected(self, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("x: feature_numeric\nlabel: label\nx: ignore\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"s\.txt:3: column 'x' is listed twice"):
            FeatureSchema.from_file(str(f))

    def test_schema_without_feature_column_rejected(self):
        with pytest.raises(ValueError, match="no feature"):
            FeatureSchema({"x": "ignore", "label": "label"})


class TestLoadCsv:
    def test_blank_cell_dropped_and_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["red,1.0,x,yes", "blue,,x,no", "red,2.0,x,yes", "blue,3.0,x,no", "red,4.0,x,yes"])
        table = load_csv_dataset(str(f), SCHEMA)
        assert table.raw_row_count == 5
        assert table.dropped_rows == 1
        assert table.n_samples == 4

    def test_subset_rejects_a_mask_or_float_indices(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["red,1.0,x,yes", "blue,2.0,x,no", "red,3.0,x,yes"])
        table = load_csv_dataset(str(f), SCHEMA)
        for indices in (table.labels == 1, np.array([0.0, 2.0])):
            with pytest.raises(ValueError, match="integer row indices"):
                table.subset(indices)
        sub = table.subset(np.flatnonzero(table.labels == 1))
        assert sub.columns["size"].tolist() == [2.0]
        assert table.subset([]).n_samples == 0

    def test_label_ids_in_first_appearance_order(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["a,1,x,Slight", "b,2,x,Severe", "c,3,x,Fatal", "d,4,x,Severe"])
        table = load_csv_dataset(str(f), SCHEMA)
        assert table.class_names == ["Slight", "Severe", "Fatal"]
        assert table.labels.tolist() == [0, 1, 2, 1]

    def test_invalid_numeric_dropped(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["a,1,x,y", "b,nope,x,y", "c,3,x,n"])
        table = load_csv_dataset(str(f), SCHEMA)
        assert table.n_samples == 2 and table.dropped_rows == 1

    def test_non_finite_numeric_dropped(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["a,1,x,y", "b,nan,x,y", "c,inf,x,n", "d,-inf,x,n", "e,1e400,x,y", "f,2,x,n"])
        table = load_csv_dataset(str(f), SCHEMA)
        assert table.n_samples == 2 and table.dropped_rows == 4
        assert table.columns["color"].tolist() == ["a", "f"]

    def test_header_names_stripped(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("color, size,note ,outcome\nred,1,x,yes\nblue,2,x,no\n", encoding="utf-8")
        table = load_csv_dataset(str(f), SCHEMA)
        assert table.n_samples == 2 and table.dropped_rows == 0
        assert table.columns["size"].tolist() == [1.0, 2.0]

    def test_drop_labels_filter(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["a,1,x,Unknown", "b,2,x,Slight", "c,3,x,Slight", "d,4,x,Fatal"])
        table = load_csv_dataset(str(f), SCHEMA, drop_labels=("Unknown",))
        assert table.class_names == ["Slight", "Fatal"]
        assert table.n_samples == 3
        assert table.dropped_rows == 0

    def test_missing_schema_column_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("color,outcome\nred,yes\n", encoding="utf-8")
        with pytest.raises(ValueError, match="size"):
            load_csv_dataset(str(f), SCHEMA)

    def test_all_rows_invalid_rejected(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["a,,x,y", "b,,x,n"])
        with pytest.raises(ValueError, match="no usable rows"):
            load_csv_dataset(str(f), SCHEMA)


class TestEncoder:
    def make_table(self, tmp_path, rows):
        f = tmp_path / "d.csv"
        write_csv(f, rows)
        return load_csv_dataset(str(f), SCHEMA)

    def test_one_hot_blocks_sum_to_one(self, tmp_path):
        table = self.make_table(tmp_path, ["red,1,x,y", "blue,2,x,y", "green,3,x,n", "red,4,x,n"])
        data = FeatureEncoder(SCHEMA).fit(table).transform(table)
        # 3 categories + 1 numeric column
        assert data.n_features == 4
        assert np.allclose(data.features[:, :3].sum(axis=1), 1.0)

    def test_numeric_zscored_on_fit_data(self, tmp_path):
        table = self.make_table(tmp_path, ["a,1,x,y", "a,2,x,y", "a,3,x,n", "a,4,x,n"])
        data = FeatureEncoder(SCHEMA).fit(table).transform(table)
        col = data.features[:, -1]
        assert abs(col.mean()) < 1e-9
        assert abs(col.var() - 1.0) < 1e-9

    def test_constant_numeric_column_becomes_zeros(self, tmp_path):
        table = self.make_table(tmp_path, ["a,7,x,y", "a,7,x,y", "a,7,x,n"])
        data = FeatureEncoder(SCHEMA).fit(table).transform(table)
        assert np.allclose(data.features[:, -1], 0.0)

    def test_unseen_category_warns_and_zero_encodes(self, tmp_path):
        fit_table = self.make_table(tmp_path, ["red,1,x,y", "blue,2,x,n"])
        encoder = FeatureEncoder(SCHEMA).fit(fit_table)
        new_table = self.make_table(tmp_path, ["green,1,x,y", "red,2,x,n"])
        with pytest.warns(UserWarning, match="unseen"):
            data = encoder.transform(new_table)
        assert np.allclose(data.features[0, :2], 0.0)
        assert data.features[1, 0] == 1.0

    @pytest.mark.parametrize("name", ["categories", "numeric_stats"])
    def test_fitted_state_is_not_a_constructor_option(self, name):
        with pytest.raises(TypeError):
            FeatureEncoder(SCHEMA, **{name: {}})


ADDIS_SCHEMA = Path(__file__).resolve().parents[1] / "configs" / "addis_schema.txt"


def reference_load(path, schema, drop_labels=()):
    """The row-wise CSV loader the columnar one replaced, operation for
    operation: (string rows, label ids, class names, raw count, dropped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        feature_cols = schema.feature_columns
        numeric_cols = {c for c in feature_cols if schema.roles[c] == "feature_numeric"}
        label_col = schema.label_column
        dropped = set(drop_labels)

        rows = []
        label_strings = []
        raw_count = 0
        invalid = 0
        for record in reader:
            raw_count += 1
            values = {c: (record.get(c) or "").strip() for c in (*feature_cols, label_col)}
            label = values[label_col]
            if label in dropped:
                continue
            row_bad = label == ""
            for c in feature_cols:
                cell = values[c]
                if cell == "":
                    row_bad = True
                elif c in numeric_cols:
                    try:
                        row_bad |= not math.isfinite(float(cell))
                    except ValueError:
                        row_bad = True
            if row_bad:
                invalid += 1
                continue
            rows.append([values[c] for c in feature_cols])
            label_strings.append(label)

    class_names = []
    seen = {}
    for s in label_strings:
        if s not in seen:
            seen[s] = len(class_names)
            class_names.append(s)
    labels = np.array([seen[s] for s in label_strings], dtype=np.int64)
    return rows, labels, class_names, raw_count, invalid


class ReferenceEncoder:
    """The row-wise fit/transform loops the columnar encoder replaced,
    operation for operation."""

    def __init__(self, schema):
        self.schema = schema
        self.categories = {}
        self.numeric_stats = {}

    def fit(self, rows):
        col_index = {c: i for i, c in enumerate(self.schema.feature_columns)}
        for col in self.schema.feature_columns:
            values = [row[col_index[col]] for row in rows]
            if self.schema.roles[col] == "feature_categorical":
                cats = []
                seen = set()
                for v in values:
                    if v not in seen:
                        seen.add(v)
                        cats.append(v)
                self.categories[col] = cats
            else:
                arr = np.array([float(v) for v in values])
                self.numeric_stats[col] = (float(arr.mean()), max(float(arr.std()), FeatureEncoder.STD_FLOOR))
        return self

    def transform(self, rows):
        col_index = {c: i for i, c in enumerate(self.schema.feature_columns)}
        blocks = []
        for col in self.schema.feature_columns:
            values = [row[col_index[col]] for row in rows]
            if self.schema.roles[col] == "feature_categorical":
                cats = self.categories[col]
                block = np.zeros((len(values), len(cats)))
                lookup = {c: i for i, c in enumerate(cats)}
                unseen = 0
                for r, v in enumerate(values):
                    j = lookup.get(v)
                    if j is None:
                        unseen += 1
                    else:
                        block[r, j] = 1.0
                if unseen:
                    warnings.warn(
                        f"column {col!r}: {unseen} values unseen at fit time encoded as all-zeros"
                    )
            else:
                mean, std = self.numeric_stats[col]
                block = ((np.array([float(v) for v in values]) - mean) / std)[:, None]
            blocks.append(block)
        return np.concatenate(blocks, axis=1)


class TestColumnarMatchesRowwiseReference:
    def test_addis_schema_tables_encode_byte_equal(self, tmp_path):
        schema = FeatureSchema.from_file(str(ADDIS_SCHEMA))
        drop = ("Unknown",)
        fit_csv = write_addis_like_csv(tmp_path / "fit.csv", schema, 600, vocab=4, seed=1)
        new_csv = write_addis_like_csv(tmp_path / "new.csv", schema, 300, vocab=6, seed=2)

        fit_table = load_csv_dataset(fit_csv, schema, drop)
        fit_rows, fit_labels, class_names, raw_count, dropped = reference_load(fit_csv, schema, drop)
        assert (fit_table.raw_row_count, fit_table.dropped_rows) == (raw_count, dropped)
        assert dropped >= 7 and fit_table.n_samples == len(fit_rows)
        encoder = FeatureEncoder(schema).fit(fit_table)
        reference = ReferenceEncoder(schema).fit(fit_rows)
        assert encoder.categories == reference.categories
        assert encoder.numeric_stats == reference.numeric_stats
        assert "Slight Injury\x00" in fit_table.class_names and "Slight Injury" in fit_table.class_names
        assert any(c + "\x00" in cats for cats in encoder.categories.values() for c in cats)

        new_table = load_csv_dataset(new_csv, schema, drop)
        new_rows, new_labels, new_class_names, _, _ = reference_load(new_csv, schema, drop)
        cases = [(fit_table, fit_rows, fit_labels, class_names),
                 (new_table, new_rows, new_labels, new_class_names)]
        messages = []
        for table, rows, labels, names in cases:
            with warnings.catch_warnings(record=True) as ours:
                warnings.simplefilter("always")
                data = encoder.transform(table)
            with warnings.catch_warnings(record=True) as theirs:
                warnings.simplefilter("always")
                features = reference.transform(rows)
            assert data.features.dtype == features.dtype and data.features.shape == features.shape
            assert data.features.tobytes() == features.tobytes()
            assert data.labels.tobytes() == labels.tobytes()
            assert data.class_names == names
            messages.append([str(w.message) for w in ours])
            assert messages[-1] == [str(w.message) for w in theirs]
        assert messages[0] == [] and len(messages[1]) > 0


class TestToSequences:
    def test_even_split(self):
        x = np.arange(12.0).reshape(2, 6)
        seq = to_sequences(x, 2)
        assert seq.shape == (2, 2, 3)
        assert np.array_equal(seq[0, 0], [0, 1, 2])
        assert np.array_equal(seq[0, 1], [3, 4, 5])

    def test_single_chunk_is_identity_width(self):
        x = np.arange(6.0).reshape(2, 3)
        seq = to_sequences(x, 1)
        assert seq.shape == (2, 1, 3)
        assert np.array_equal(seq[:, 0, :], x)

    def test_zero_pads_uneven_width(self):
        x = np.ones((1, 5))
        seq = to_sequences(x, 2)
        assert seq.shape == (1, 2, 3)
        assert seq[0, 1, 2] == 0.0

    def test_invalid_chunks_rejected(self):
        with pytest.raises(ValueError):
            to_sequences(np.ones((1, 4)), 0)


class TestSyntheticBenchmark:
    def test_deterministic_in_seed(self):
        a = synthetic_benchmark(seed=3)
        b = synthetic_benchmark(seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_priors_approximately_respected(self):
        data = synthetic_benchmark(n_samples=4000, seed=1)
        _, pct = class_distribution(data)
        assert np.allclose(pct / 100.0, [0.70, 0.25, 0.05], atol=0.03)

    def test_class_means_separated_by_requested_distance(self):
        data = synthetic_benchmark(n_samples=6000, separation=4.0, seed=2)
        means = np.stack([data.features[data.labels == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(4.0, abs=0.15)

    def test_too_few_features_rejected(self):
        with pytest.raises(ValueError):
            synthetic_benchmark(n_features=2)
