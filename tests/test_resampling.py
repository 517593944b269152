from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbsadam import resampling
from dbsadam.data import LabeledDataset, class_distribution
from dbsadam.numerics import SeededRng
from dbsadam.resampling import (
    NeighborIndex,
    _neighbor_table,
    adasyn,
    adasyn_generate,
    enn_filter,
    smote_enn,
    smote_generate,
)


class FixedLambdaRng:
    """Stub stream forcing the interpolation coefficient; integer draws stay
    deterministic via a real stream."""

    def __init__(self, lam, seed=0):
        self.lam = lam
        self._real = SeededRng(seed)

    def uniform(self, low=0.0, high=1.0, size=None):
        if size is None:
            return self.lam
        return np.full(size, self.lam)

    def integers(self, low, high=None, size=None):
        return self._real.integers(low, high, size)


def blobs(n_a, n_b, distance=6.0, seed=0, dims=2):
    rng = SeededRng(seed)
    a = rng.normal(size=(n_a, dims))
    b = rng.normal(size=(n_b, dims))
    b[:, 0] += distance
    features = np.concatenate([a, b])
    labels = np.concatenate([np.zeros(n_a, dtype=int), np.ones(n_b, dtype=int)])
    return LabeledDataset(features, labels, ["a", "b"])


class TestKnnQuery:
    def test_duplicate_of_query_is_first_neighbor(self):
        feats = np.array([[0.0, 0.0], [5.0, 5.0], [1.0, 1.0], [1.0, 1.0]])
        index = NeighborIndex(feats)
        idx, dist = index.query(np.array([1.0, 1.0]), 1, exclude=2)
        assert idx[0] == 3 and dist[0] == 0.0

    def test_collinear_ordering(self):
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        idx, dist = NeighborIndex(feats).query(feats[0], 2, exclude=0)
        assert idx.tolist() == [1, 2]
        assert dist.tolist() == [1.0, 2.0]

    def test_ties_break_to_lower_index(self):
        feats = np.array([[1.0], [-1.0], [1.0]])
        idx, _ = NeighborIndex(feats).query(np.array([0.0]), 3)
        assert idx.tolist() == [0, 1, 2]

    def test_matches_sort_all_distances_oracle(self):
        rng = SeededRng(17)
        feats = rng.normal(size=(50, 4))
        index = NeighborIndex(feats)
        for q in range(10):
            idx, dist = index.query(feats[q], 8, exclude=q)
            full = np.sqrt(((feats - feats[q]) ** 2).sum(axis=1))
            full[q] = np.inf
            expected = np.argsort(full, kind="stable")[:8]
            assert idx.tolist() == expected.tolist()
            assert np.allclose(dist, full[expected])

    def test_k_out_of_range(self):
        index = NeighborIndex(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            index.query(np.zeros(2), 3, exclude=0)
        with pytest.raises(ValueError):
            index.query(np.zeros(2), 0)


@st.composite
def grid_table_case(draw):
    """Integer-grid rows drawn from a small pool, so rows repeat and many
    distances tie; squared distances of small integers are exact in float64
    under both the expanded and the difference form."""
    n = draw(st.integers(2, 30))
    width = draw(st.integers(1, 3))
    pool = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=width, max_size=width), min_size=1, max_size=n
    ))
    pick = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
    features = np.array(pool, dtype=np.float64)[pick]
    k = draw(st.integers(1, n - 1))
    rows = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return features, k, np.array(rows, dtype=np.int64)


def brute_force_table(features, k, rows):
    d2 = ((features[rows, None, :] - features[None, :, :]) ** 2).sum(axis=2)
    d2[np.arange(rows.size), rows] = np.inf
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


class TestNeighborTable:
    @settings(max_examples=60, deadline=None)
    @given(case=grid_table_case())
    def test_full_table_matches_stable_argsort(self, case):
        features, k, _ = case
        expected = brute_force_table(features, k, np.arange(features.shape[0]))
        assert _neighbor_table(features, k).tolist() == expected.tolist()

    @settings(max_examples=60, deadline=None)
    @given(case=grid_table_case())
    def test_row_subset_matches_stable_argsort(self, case):
        features, k, rows = case
        got = _neighbor_table(features, k, rows)
        assert got.shape == (rows.size, k)
        assert got.tolist() == brute_force_table(features, k, rows).tolist()

    @settings(max_examples=60, deadline=None)
    @given(case=grid_table_case(), rows_per_block=st.integers(0, 3))
    def test_small_blocks_match_stable_argsort(self, case, rows_per_block):
        # a budget of 0 to 3 rows of distances: every block boundary is crossed
        features, k, rows = case
        budget = rows_per_block * 8 * features.shape[0]
        with mock.patch.object(resampling, "_BLOCK_BYTES", budget):
            full = _neighbor_table(features, k)
            subset = _neighbor_table(features, k, rows)
        all_rows = np.arange(features.shape[0])
        assert full.tolist() == brute_force_table(features, k, all_rows).tolist()
        assert subset.tolist() == brute_force_table(features, k, rows).tolist()

    def test_k_out_of_range(self):
        features = np.zeros((4, 2))
        for k in (0, -1, 4):
            with pytest.raises(ValueError, match="out of range"):
                _neighbor_table(features, k)

    @pytest.mark.parametrize("rows_per_block", [0, 4])
    def test_near_duplicates_clamp_to_zero_with_ties_to_lower_index(self, rows_per_block):
        # rows x, x + 1e-9, x for values x where the expanded squared distance
        # of the first two rounds below 0; one column keeps every product a
        # single rounding, so the reference below has the table's bits
        xs = SeededRng(5).normal(size=200) * 10.0
        expanded = (xs * xs + (xs + 1e-9) ** 2) - 2.0 * (xs * (xs + 1e-9))
        picked = xs[expanded < 0][:3]
        assert picked.size == 3
        features = np.stack([picked, picked + 1e-9, picked], axis=1).reshape(-1, 1)
        sq = np.sum(features * features, axis=1)
        raw = (sq[:, None] + sq[None, :]) - 2.0 * (features @ features.T)
        assert (raw < 0).sum() >= 6
        d2 = np.maximum(raw, 0.0)
        np.fill_diagonal(d2, np.inf)
        expected = np.argsort(d2, axis=1, kind="stable")[:, :2]
        with mock.patch.object(resampling, "_BLOCK_BYTES", rows_per_block * 8 * features.shape[0]):
            got = _neighbor_table(features, 2)
        assert got.tolist() == expected.tolist()
        for t in range(3):
            base = 3 * t
            assert got[base + 1].tolist() == [base, base + 2]
            assert got[base + 2].tolist() == [base, base + 1]


@pytest.mark.parametrize("value", [np.nan, 1e200])
@pytest.mark.filterwarnings("error")
class TestNonFiniteSearchRejected:
    # row 43 is a minority sample; a 1e200 feature overflows its squared norm.
    # Every warning is an error here: the ValueError is the only report.
    def data(self, value):
        data = blobs(40, 4, seed=1)
        data.features[43, 1] = value
        return data

    def test_neighbor_table(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            _neighbor_table(self.data(value).features, 3)

    def test_enn_filter(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            enn_filter(self.data(value), 3)

    def test_smote_enn(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            smote_enn(self.data(value), rng=SeededRng(0))

    def test_adasyn(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            adasyn(self.data(value), 3, SeededRng(0))

    def test_neighbor_index_query(self, value):
        data = self.data(value)
        with pytest.raises(ValueError, match="non-finite"):
            NeighborIndex(data.features).query(data.features[43], 3, exclude=43)


class TestSmote:
    def test_lambda_zero_reproduces_anchor(self):
        data = blobs(10, 10, seed=1)
        synth = smote_generate(data, 0, 5, 3, FixedLambdaRng(0.0))
        for row in synth:
            assert np.any(np.all(np.isclose(row, data.features[data.labels == 0]), axis=1))

    def test_lambda_one_reproduces_neighbor(self):
        data = blobs(10, 10, seed=2)
        synth = smote_generate(data, 0, 5, 3, FixedLambdaRng(1.0))
        for row in synth:
            assert np.any(np.all(np.isclose(row, data.features[data.labels == 0]), axis=1))

    def test_synthetics_on_segment_between_class_points(self):
        data = blobs(30, 30, seed=3, dims=3)
        synth = smote_generate(data, 1, 200, 5, SeededRng(4))
        members = data.features[data.labels == 1]
        for row in synth:
            ok = False
            for i in range(members.shape[0]):
                direction = row - members[i]
                for j in range(members.shape[0]):
                    if i == j:
                        continue
                    seg = members[j] - members[i]
                    denom = seg @ seg
                    if denom == 0:
                        continue
                    lam = (direction @ seg) / denom
                    if -1e-9 <= lam <= 1 + 1e-9 and np.linalg.norm(direction - lam * seg) < 1e-9:
                        ok = True
                        break
                if ok:
                    break
            assert ok

    def test_deterministic_given_stream(self):
        data = blobs(12, 12, seed=5)
        a = smote_generate(data, 0, 20, 4, SeededRng(9))
        b = smote_generate(data, 0, 20, 4, SeededRng(9))
        assert np.array_equal(a, b)

    def test_small_class_rejected_with_counts(self):
        data = LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 1]), ["a", "b"])
        with pytest.raises(ValueError, match="1 samples"):
            smote_generate(data, 1, 5, 1, SeededRng(0))

    def test_k_too_large_rejected(self):
        data = blobs(4, 4)
        with pytest.raises(ValueError):
            smote_generate(data, 0, 2, 4, SeededRng(0))


class TestEnn:
    def test_separated_clusters_untouched(self):
        data = blobs(40, 40, distance=8.0, seed=6)
        cleaned, removed = enn_filter(data, k=3)
        assert removed.size == 0
        assert cleaned.n_samples == 80

    def test_planted_flip_removed(self):
        data = blobs(40, 40, distance=8.0, seed=7)
        # plant one point of class 0 deep inside cluster 1
        features = data.features.copy()
        features[0] = [8.0, 0.0]
        planted = LabeledDataset(features, data.labels, data.class_names)
        cleaned, removed = enn_filter(planted, k=3)
        assert removed.tolist() == [0]
        assert cleaned.n_samples == 79

    def test_mutual_disagreement_removes_both(self):
        features = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        labels = np.array([0, 1, 0, 1])
        data = LabeledDataset(features, labels, ["a", "b"])
        _, removed = enn_filter(data, k=1)
        assert removed.tolist() == [0, 1, 2, 3]

    def test_output_is_subset_of_input(self):
        data = blobs(30, 30, distance=2.0, seed=8)  # overlapping, some removals
        cleaned, removed = enn_filter(data, k=3)
        assert cleaned.n_samples + removed.size == data.n_samples
        rows = {tuple(r) for r in data.features}
        assert all(tuple(r) in rows for r in cleaned.features)

    def test_too_small_dataset_rejected(self):
        data = LabeledDataset(np.zeros((3, 1)), np.array([0, 1, 0]), ["a", "b"])
        with pytest.raises(ValueError):
            enn_filter(data, k=3)


class TestSmoteEnn:
    def test_balanced_separated_data_unchanged(self):
        data = blobs(25, 25, distance=8.0, seed=9)
        out = smote_enn(data, rng=SeededRng(1))
        assert out.n_samples == 50
        counts, _ = class_distribution(out)
        assert counts.tolist() == [25, 25]

    def test_ninety_ten_blobs_reach_minority_parity(self):
        data = blobs(90, 10, distance=6.0, seed=10)
        out = smote_enn(data, rng=SeededRng(2))
        counts, pct = class_distribution(out)
        assert pct[1] / 100.0 >= 0.40

    def test_three_class_majority_share_bounded(self):
        # shaped like a skewed three-class training split: the pipeline must
        # pull the majority share at or below 45%
        rng = SeededRng(11)
        sizes = (900, 97, 15)
        parts, labels = [], []
        centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
        for c, size in enumerate(sizes):
            parts.append(rng.normal(size=(size, 2)) + centers[c])
            labels.append(np.full(size, c, dtype=int))
        data = LabeledDataset(np.concatenate(parts), np.concatenate(labels), ["x", "y", "z"])
        out = smote_enn(data, rng=SeededRng(3))
        counts, pct = class_distribution(out)
        assert pct.max() <= 45.0

    def test_deterministic_given_seed(self):
        data = blobs(50, 12, seed=12)
        a = smote_enn(data, rng=SeededRng(5))
        b = smote_enn(data, rng=SeededRng(5))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_tiny_minority_rejected(self):
        data = LabeledDataset(np.zeros((5, 2)), np.array([0, 0, 0, 0, 1]), ["a", "b"])
        with pytest.raises(ValueError, match="class 1"):
            smote_enn(data, rng=SeededRng(0))


class TestAdasyn:
    def planted(self, seed=13):
        # minority: one interior point (surrounded by minority), one boundary
        # cluster adjacent to the majority blob
        rng = SeededRng(seed)
        majority = rng.normal(size=(60, 2))
        interior = rng.normal(size=(6, 2)) * 0.1 + np.array([10.0, 10.0])
        boundary = rng.normal(size=(6, 2)) * 0.1 + np.array([1.5, 0.0])
        features = np.concatenate([majority, interior, boundary])
        labels = np.array([0] * 60 + [1] * 12)
        return LabeledDataset(features, labels, ["maj", "min"])

    def test_total_within_rounding_slack(self):
        data = self.planted()
        total = 40
        synth = adasyn_generate(data, 1, total, 5, SeededRng(1))
        minority_count = 12
        assert total - minority_count <= synth.shape[0] <= total + minority_count

    def test_allocation_prefers_boundary_points(self):
        data = self.planted()
        synth = adasyn_generate(data, 1, 30, 5, SeededRng(2))
        # everything generated should lie near the boundary cluster, whose
        # members are the only minority points with majority neighbors
        assert synth.shape[0] > 0
        assert np.all(np.linalg.norm(synth - np.array([1.5, 0.0]), axis=1) < 2.0)

    def test_ratio_normalization_sums_to_one(self):
        data = self.planted()
        index = NeighborIndex(data.features)
        members = np.flatnonzero(data.labels == 1)
        r = np.array([
            np.mean(data.labels[index.query(data.features[i], 5, exclude=int(i))[0]] == 0)
            for i in members
        ])
        shares = r / r.sum()
        assert shares.sum() == pytest.approx(1.0, abs=1e-12)

    def test_monotone_allocation_in_ratio(self):
        data = self.planted()
        index = NeighborIndex(data.features)
        members = np.flatnonzero(data.labels == 1)
        r = np.array([
            np.mean(data.labels[index.query(data.features[i], 5, exclude=int(i))[0]] == 0)
            for i in members
        ])
        shares = r / r.sum()
        g = np.floor(shares * 30 + 0.5)
        order = np.argsort(r)
        assert np.all(np.diff(g[order]) >= 0)

    def test_matches_per_member_query_reference(self):
        # the per-member loop over NeighborIndex.query, with exact distances,
        # that the batched neighbor table replaced
        def reference(data, target_class, total, k, rng):
            members = np.flatnonzero(data.labels == target_class)
            majority_class = int(np.argmax(np.bincount(data.labels)))
            index = NeighborIndex(data.features)
            r = np.array([
                np.mean(data.labels[index.query(data.features[i], k, exclude=int(i))[0]] == majority_class)
                for i in members
            ])
            per_sample = np.floor(r / r.sum() * total + 0.5).astype(np.int64)
            class_feats = data.features[members]
            class_index = NeighborIndex(class_feats)
            rows = []
            for j in range(members.size):
                if per_sample[j] == 0:
                    continue
                nn, _ = class_index.query(class_feats[j], k, exclude=j)
                slot = rng.integers(0, k, size=int(per_sample[j]))
                lam = rng.uniform(size=int(per_sample[j]))
                rows.append(class_feats[j] + lam[:, None] * (class_feats[nn[slot]] - class_feats[j]))
            return np.concatenate(rows, axis=0)

        data = self.planted()
        for k, total in ((5, 40), (3, 25), (1, 7)):
            got = adasyn_generate(data, 1, total, k, SeededRng(k))
            expected = reference(data, 1, total, k, SeededRng(k))
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_isolated_minority_warns_and_returns_nothing(self):
        rng = SeededRng(14)
        majority = rng.normal(size=(30, 2))
        far = rng.normal(size=(5, 2)) * 0.01 + np.array([100.0, 100.0])
        data = LabeledDataset(
            np.concatenate([majority, far]),
            np.array([0] * 30 + [1] * 5),
            ["a", "b"],
        )
        with pytest.warns(UserWarning, match="borders"):
            synth = adasyn_generate(data, 1, 20, 3, SeededRng(0))
        assert synth.shape[0] == 0

    def test_zero_budget(self):
        data = self.planted()
        assert adasyn_generate(data, 1, 0, 5, SeededRng(0)).shape == (0, 2)
