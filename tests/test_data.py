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


class TestLoadCsv:
    def test_blank_cell_dropped_and_counted(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["red,1.0,x,yes", "blue,,x,no", "red,2.0,x,yes", "blue,3.0,x,no", "red,4.0,x,yes"])
        table = load_csv_dataset(str(f), SCHEMA)
        assert table.raw_row_count == 5
        assert table.dropped_rows == 1
        assert table.n_samples == 4

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
        assert [row[0] for row in table.rows] == ["a", "f"]

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
