"""Rebalancing a skewed dataset: SMOTE interpolation, ENN cleaning, ADASYN.

Uses two well-separated Gaussian blobs at a 90/10 class ratio, plants one
mislabeled point, and walks the data through each stage.
"""

import numpy as np

from dbsadam import (
    LabeledDataset,
    NeighborIndex,
    SeededRng,
    adasyn_generate,
    class_distribution,
    enn_filter,
    smote_enn,
    smote_generate,
)


def show(title, data):
    counts, pct = class_distribution(data)
    parts = [f"{name}={c} ({p:.1f}%)" for name, c, p in zip(data.class_names, counts, pct)]
    print(f"  {title}: " + ", ".join(parts))


rng = SeededRng(3)
majority = rng.normal(size=(90, 2))
minority = rng.normal(size=(10, 2))
minority[:, 0] += 6.0  # six sigma away: the classes barely overlap
features = np.concatenate([majority, minority])
labels = np.array([0] * 90 + [1] * 10)
data = LabeledDataset(features, labels, ["common", "rare"])

print("== starting point ==")
show("raw", data)

print("\n== SMOTE: segment interpolation between same-class neighbors ==")
synth = smote_generate(data, target_class=1, n_synthetic=5, k=3, rng=SeededRng(4))
members = data.features[labels == 1]
for row in synth:
    nearest = np.linalg.norm(members - row, axis=1).min()
    print(f"  synthetic at ({row[0]:6.2f}, {row[1]:6.2f}), {nearest:.2f} from nearest real rare point")

print("\n== ENN: a planted label flip is voted out by its neighbors ==")
flipped = data.features.copy()
flipped[0] = [6.0, 0.0]  # a 'common' point dropped into the rare cluster
planted = LabeledDataset(flipped, labels, data.class_names)
cleaned, removed = enn_filter(planted, k=3)
print(f"  removed row indices: {removed.tolist()} (the plant sits at row 0)")

print("\n== combined SMOTE-ENN ==")
balanced = smote_enn(data, smote_k=5, enn_k=3, rng=SeededRng(5))
show("after pipeline", balanced)

print("\n== ADASYN: the synthetic budget concentrates on boundary points ==")
# move two rare points near the majority blob so they alone have majority
# neighbors
shifted = data.features.copy()
shifted[90] = [2.0, 0.0]
shifted[91] = [2.2, 0.3]
boundary_data = LabeledDataset(shifted, labels, data.class_names)
synth = adasyn_generate(boundary_data, target_class=1, total_synthetic=20, k=5, rng=SeededRng(6))
near_boundary = np.sum(np.linalg.norm(synth - [2.1, 0.1], axis=1) < 1.5)
print(f"  {synth.shape[0]} synthetics generated, {near_boundary} land beside the boundary pair")

print("\n== neighbor queries are exact and deterministic ==")
index = NeighborIndex(data.features)
idx, dist = index.query(data.features[95], k=3, exclude=95)
print(f"  3-NN of rare point 95: rows {idx.tolist()} at distances {np.round(dist, 3).tolist()}")
