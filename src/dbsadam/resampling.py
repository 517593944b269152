"""Data-level class rebalancing: SMOTE, ENN cleaning, SMOTE-ENN, and ADASYN.

Neighbor search is exact brute force under Euclidean distance, in blocks of
query rows sized so one block's distances fit a fixed byte budget; a full
N x N matrix never materializes. Ties resolve to the lower row index and a
point is never its own neighbor.
"""

from __future__ import annotations

import warnings

import numpy as np

from .data import LabeledDataset
from .numerics import SeededRng

# bytes of float64 distances in one block of query rows
_BLOCK_BYTES = 4 << 20


class NeighborIndex:
    """Brute-force k-nearest-neighbor index over a feature matrix."""

    def __init__(self, features: np.ndarray):
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {self.features.shape}")

    def query(
        self, point: np.ndarray, k: int, exclude: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """k nearest rows to `point`, optionally excluding one row (self).

        Returns (indices, distances) sorted by non-decreasing distance with
        ties broken by lower row index.
        """
        available = self.features.shape[0] - (1 if exclude is not None else 0)
        if k < 1 or k > available:
            raise ValueError(f"k={k} out of range for {available} candidate rows")
        with np.errstate(over="ignore", invalid="ignore"):  # _k_smallest rejects the result
            diff = self.features - np.asarray(point, dtype=np.float64)
            dist = np.sqrt(np.sum(diff * diff, axis=1))
        if exclude is not None:
            dist[exclude] = np.inf
        order = _k_smallest(dist[None, :].copy(), k)[0]
        return order, dist[order]


def _k_smallest(d: np.ndarray, k: int) -> np.ndarray:
    """Column indices (R, k) of each row's k smallest values, ordered by value
    with ties to the lower index: np.argsort(d, axis=1, kind="stable")[:, :k]
    on finite rows.

    k passes of argmin, which returns the first minimum; each pass overwrites
    its picks with inf, so d is scratch. A pick that is not finite raises
    ValueError: argmin picks a NaN first, and a row with fewer than k finite
    values runs out of finite picks. The distance computations before it run
    with NumPy's overflow and invalid-value warnings off, so this error is
    what a non-finite or overflowing feature reports.
    """
    rows = np.arange(d.shape[0])
    out = np.empty((d.shape[0], k), dtype=np.int64)
    for j in range(k):
        pick = d.argmin(axis=1)
        if not np.isfinite(d[rows, pick]).all():
            raise ValueError("non-finite distance in neighbor search: features must be finite "
                             "and small enough that their squares do not overflow")
        out[:, j] = pick
        d[rows, pick] = np.inf
    return out


def _neighbor_table(features: np.ndarray, k: int, rows: np.ndarray | None = None) -> np.ndarray:
    """Indices (len(rows), k) of the k nearest other rows of each listed row
    (of every row when rows is None), in blocks of at most _BLOCK_BYTES of
    distances."""
    n = features.shape[0]
    if k < 1 or k > n - 1:
        raise ValueError(f"k={k} out of range for {n} rows")
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):  # _k_smallest rejects the result
        sq = np.sum(features * features, axis=1)
        # -2 y_j as (F, N) C-contiguous columns, the faster GEMM operand;
        # scaling by -2 is exact, so x_i.(-2 y_j) has the bits of -2 (x_i.y_j)
        minus_2t = np.multiply(features.T, -2.0, order="C")
        step = max(1, _BLOCK_BYTES // (8 * n))
        d2 = np.empty((min(step, rows.size), n))
        prod = np.empty_like(d2)
        out = np.empty((rows.size, k), dtype=np.int64)
        for start in range(0, rows.size, step):
            block = rows[start:start + step]
            d, p = d2[: block.size], prod[: block.size]
            # (sq_i + sq_j) - 2 x_i.x_j, in this order: it fixes the result bits
            np.add(sq[block, None], sq, out=d)
            np.matmul(features[block], minus_2t, out=p)
            d += p
            np.maximum(d, 0.0, out=d)
            d[np.arange(block.size), block] = np.inf
            out[start:start + block.size] = _k_smallest(d, k)
    return out


def smote_generate(
    data: LabeledDataset,
    target_class: int,
    n_synthetic: int,
    k: int,
    rng: SeededRng,
) -> np.ndarray:
    """Synthetic rows for one class by segment interpolation.

    Each synthetic point is x_i + lam * (x_nn - x_i) with lam ~ U[0, 1],
    where x_i is a class member and x_nn one of its k nearest same-class
    neighbors. Draw order per synthetic batch: member indices, neighbor
    slots, lambdas.
    """
    members = np.flatnonzero(data.labels == target_class)
    m = members.size
    if m < 2:
        raise ValueError(
            f"class {target_class} has {m} samples, need at least 2 to interpolate"
        )
    if k < 1 or k > m - 1:
        raise ValueError(f"k={k} out of range for class of {m} samples")
    if n_synthetic == 0:
        return np.zeros((0, data.n_features))

    class_feats = data.features[members]
    neighbors = _neighbor_table(class_feats, k)

    anchor = rng.integers(0, m, size=n_synthetic)
    slot = rng.integers(0, k, size=n_synthetic)
    lam = rng.uniform(size=n_synthetic)
    x_i = class_feats[anchor]
    x_nn = class_feats[neighbors[anchor, slot]]
    return x_i + lam[:, None] * (x_nn - x_i)


def enn_filter(data: LabeledDataset, k: int = 3) -> tuple[LabeledDataset, np.ndarray]:
    """Remove samples whose k-NN majority vote disagrees with their label.

    Single pass; votes exclude the sample itself; a tied vote counts as
    disagreement, so a sample survives only when its own class strictly
    outnumbers every other class among its k neighbors. Returns the cleaned
    dataset and the removed row indices.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    neighbor_labels = data.labels[_neighbor_table(data.features, k)]  # (N, k)
    votes = (neighbor_labels[:, :, None] == np.arange(data.n_classes)).sum(axis=1)  # (N, C)
    rows = np.arange(data.n_samples)
    own = votes[rows, data.labels].copy()
    votes[rows, data.labels] = -1
    keep = own > votes.max(axis=1)
    removed = np.flatnonzero(~keep)
    return data.subset(np.flatnonzero(keep)), removed


def smote_enn(
    data: LabeledDataset,
    smote_k: int = 5,
    enn_k: int = 3,
    rng: SeededRng | None = None,
) -> LabeledDataset:
    """Oversample every minority class to the majority count, then ENN-clean.

    Each class draws from its own substream of the given rng, so results do
    not depend on class processing order. Synthetic rows are appended after
    the originals, grouped by class id.
    """
    if rng is None:
        rng = SeededRng(0)
    counts = np.bincount(data.labels, minlength=data.n_classes)

    def synthesize(c: int, deficit: int) -> np.ndarray:
        if counts[c] < 2:
            raise ValueError(
                f"class {c} has {int(counts[c])} samples, need at least 2 "
                f"(counts: {counts.tolist()})"
            )
        return smote_generate(data, c, deficit, min(smote_k, int(counts[c]) - 1), rng.child(c))

    cleaned, _ = enn_filter(_oversample(data, synthesize), enn_k)
    return cleaned


def adasyn(data: LabeledDataset, k: int, rng: SeededRng) -> LabeledDataset:
    """ADASYN-oversample every minority class to the majority count.

    Each class draws from its own substream of rng; synthetic rows are
    appended after the originals, grouped by class id.
    """
    return _oversample(data, lambda c, deficit: adasyn_generate(data, c, deficit, k, rng.child(c)))


def _oversample(data: LabeledDataset, generate) -> LabeledDataset:
    """data followed by the rows generate(c, deficit) returns for every class
    c short of the majority count by deficit rows, grouped by class id."""
    counts = np.bincount(data.labels, minlength=data.n_classes)
    feature_blocks, label_blocks = [data.features], [data.labels]
    for c in np.flatnonzero(counts < counts.max()):
        synth = generate(int(c), int(counts.max() - counts[c]))
        feature_blocks.append(synth)
        label_blocks.append(np.full(synth.shape[0], c, dtype=np.int64))
    return LabeledDataset(
        np.concatenate(feature_blocks, axis=0), np.concatenate(label_blocks), list(data.class_names)
    )


def adasyn_generate(
    data: LabeledDataset,
    target_class: int,
    total_synthetic: int,
    k: int,
    rng: SeededRng,
) -> np.ndarray:
    """Adaptive oversampling weighted toward boundary minority samples.

    Each target-class sample x_i gets a share of the synthetic budget
    proportional to the fraction of its k nearest neighbors (over the whole
    dataset) that carry the majority-class label; shares are rounded half-up.
    Interpolation partners come from the sample's nearest same-class
    neighbors, as in smote_generate.
    """
    members = np.flatnonzero(data.labels == target_class)
    m = members.size
    if m < 2:
        raise ValueError(f"class {target_class} has {m} samples, need at least 2")
    if total_synthetic < 0:
        raise ValueError(f"total_synthetic must be >= 0, got {total_synthetic}")
    if total_synthetic == 0:
        return np.zeros((0, data.n_features))
    counts = np.bincount(data.labels, minlength=data.n_classes)
    majority_class = int(np.argmax(counts))

    nn = _neighbor_table(data.features, min(k, data.n_samples - 1), members)
    r = np.mean(data.labels[nn] == majority_class, axis=1)
    r_sum = r.sum()
    if r_sum == 0.0:
        warnings.warn(
            f"class {target_class}: no sample borders the majority class, "
            "generating nothing"
        )
        return np.zeros((0, data.n_features))
    shares = r / r_sum
    per_sample = np.floor(shares * total_synthetic + 0.5).astype(np.int64)

    class_feats = data.features[members]
    k_syn = min(k, m - 1)
    neighbors = _neighbor_table(class_feats, k_syn)
    rows = [np.zeros((0, data.n_features))]
    for j in range(m):
        g = int(per_sample[j])
        if g == 0:
            continue
        slot = rng.integers(0, k_syn, size=g)
        lam = rng.uniform(size=g)
        x_i = class_feats[j]
        x_nn = class_feats[neighbors[j, slot]]
        rows.append(x_i + lam[:, None] * (x_nn - x_i))
    return np.concatenate(rows, axis=0)
