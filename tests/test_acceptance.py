"""Acceptance gate: every criterion prints its own PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The end-to-end benchmark criteria (7, 8) train
16/8-unit networks and take a couple of minutes combined.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dbsadam.data import LabeledDataset, class_distribution, synthetic_benchmark
from dbsadam.evaluation import cohens_d, paired_t_test, split_indices
from dbsadam.harness import ExperimentConfig, load_config, sensitivity_sweep, train
from dbsadam.losses import LossConfig, loss_gradient, loss_value, one_hot, softmax
from dbsadam.models import SequenceNetwork, network_backward, network_forward
from dbsadam.numerics import SeededRng, finite_difference_gradient
from dbsadam.optimizers import (
    OptimizerConfig,
    OptimizerState,
    adam_step,
    dbs_adam_step,
    difficulty,
    observe_batch,
)
from dbsadam.resampling import enn_filter, smote_enn, smote_generate
from flat_params import embed_gradients, flatten_arrays, unflatten_arrays

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_CFG = REPO_ROOT / "configs" / "benchmark.cfg"
PUBLIC_CSV = REPO_ROOT / "data" / "addis_ababa.csv"
PUBLIC_SCHEMA = REPO_ROOT / "configs" / "addis_schema.txt"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {name}")
        raise
    print(f"[criterion {number}] PASS  {name}")


def test_criterion_1_adam_first_step_oracle():
    with criterion(1, "adam first-step oracle and magnitude band"):
        started = time.perf_counter()
        # hand-derived scalar trajectory at the defaults
        params = {"w": np.array([1.0])}
        adam_step(params, {"w": np.array([0.1])}, OptimizerState(params), OptimizerConfig())
        m1 = 0.1 * 0.1
        v1 = 0.001 * 0.1 * 0.1
        m_hat, v_hat = m1 / 0.1, v1 / 0.001
        expected = 1.0 - 0.001 * m_hat / (math.sqrt(v_hat) + 1e-7)
        assert abs(params["w"][0] - expected) < 1e-9
        assert abs(params["w"][0] - 0.999) < 1e-6

        # bias correction makes the first step ~ lr across 12 orders of
        # gradient magnitude; epsilon must sit far below the smallest
        # gradient for the band to be visible (at 1e-7 a 1e-6 gradient
        # dilutes the step to ~0.91 lr)
        lr = 0.001
        config = OptimizerConfig(base_lr=lr, epsilon=1e-12)
        for g in (1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6):
            params = {"w": np.array([0.0])}
            adam_step(params, {"w": np.array([g])}, OptimizerState(params), config)
            magnitude = abs(params["w"][0])
            assert 0.999 * lr <= magnitude <= lr
        assert time.perf_counter() - started < 1.0


def test_criterion_2_dbs_reduction_to_adam():
    with criterion(2, "pinned-difficulty trajectories equal Adam at the scaled rate"):
        started = time.perf_counter()
        rng = SeededRng(2024)
        target = rng.normal(size=8)
        curvature = np.abs(rng.normal(size=8)) + 0.5
        start = rng.normal(size=8)
        for c in (0.1, 0.5, 1.0):
            p_dbs = {"w": start.copy()}
            p_adam = {"w": start.copy()}
            s_dbs, s_adam = OptimizerState(p_dbs), OptimizerState(p_adam)
            cfg = OptimizerConfig(base_lr=0.001, d_min=c, d_max=c)
            cfg_scaled = OptimizerConfig(base_lr=0.001 * c)
            for _ in range(50):
                g = {"w": curvature * (p_dbs["w"] - target)}
                loss = float(0.5 * np.sum(curvature * (p_dbs["w"] - target) ** 2))
                dbs_adam_step(p_dbs, g, s_dbs, cfg, loss)
                g2 = {"w": curvature * (p_adam["w"] - target)}
                adam_step(p_adam, g2, s_adam, cfg_scaled)
                assert np.all(np.abs(p_dbs["w"] - p_adam["w"]) < 1e-12)
        assert time.perf_counter() - started < 1.0


def test_criterion_3_difficulty_invariants():
    with criterion(3, "difficulty clipping, midpoint exactness, monotone response"):
        started = time.perf_counter()
        state, config = OptimizerState({}), OptimizerConfig(d_min=0.1, d_max=1.0)
        rng = SeededRng(33)
        for _ in range(10_000):
            g = float(abs(rng.normal()) * 10.0 ** float(rng.integers(-3, 4)))
            loss = float(rng.normal() * 10.0 ** float(rng.integers(-3, 4)))
            d = observe_batch(state, config, g, loss)
            assert 0.1 <= d <= 1.0

        for alpha in (0.0, 0.3, 0.5, 0.7, 1.0):
            s2, c2 = OptimizerState({}), OptimizerConfig(alpha_mix=alpha)
            warm = SeededRng(44)
            for _ in range(c2.warmup_batches + 3):
                observe_batch(s2, c2, float(abs(warm.normal(loc=2.0))), float(warm.normal(loc=1.0)))
            assert observe_batch(s2, c2, s2.mu_g, s2.mu_l) == 0.5

        # frozen statistics: raising either signal never lowers the score
        for _ in range(1000):
            g = float(abs(rng.normal(loc=2.0)))
            loss = float(rng.normal(loc=1.0))
            bump = float(abs(rng.normal()))
            assert difficulty(state, config, g + bump, loss) >= difficulty(state, config, g, loss)
            assert difficulty(state, config, g, loss + bump) >= difficulty(state, config, g, loss)
        assert time.perf_counter() - started < 5.0


def _network_gradient_error(seed: int, loss_config: LossConfig) -> float:
    rng = SeededRng(seed)
    net = SequenceNetwork(
        input_size=3, n_classes=3, hidden1=3, hidden2=2, dense_units=4,
        dropout_rate=0.0, rng=rng,
    )
    xs = rng.normal(size=(2, 4, 3))
    labels = one_hot(np.array(rng.integers(0, 3, size=2)), 3)
    params = net.params()
    flat, layout = flatten_arrays(params)

    def assign(theta):
        values = unflatten_arrays(theta, layout)
        for k in params:
            params[k][...] = values[k]

    def f(theta):
        assign(theta)
        logits, _ = network_forward(net, xs)
        return loss_value(loss_config, softmax(logits), labels)

    base = flat.copy()
    numeric = finite_difference_gradient(f, base, h=1e-5)
    assign(base)
    logits, cache = network_forward(net, xs)
    grads = network_backward(net, cache, loss_gradient(loss_config, logits, labels))
    # a coordinate no gradient covers is untrained (l2b runs one step, so
    # no output reads its W_h or its forget rows W_x[:H], b[:H]): its
    # numeric derivative must be exactly 0
    analytic, untrained = embed_gradients(params, grads)
    assert np.all(numeric[untrained] == 0.0)
    # scaled residual: < 1e-5 iff |a - n| < 1e-8 + 1e-5 * max(|a|, |n|); the
    # absolute escape covers coordinates below the central-difference noise
    # floor at h = 1e-5
    denom = np.maximum(np.abs(numeric), np.abs(analytic)) + 1e-3
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_4_gradient_fidelity():
    with criterion(4, "full-network BPTT matches central differences (20+ configs)"):
        started = time.perf_counter()
        worst = 0.0
        configs = [
            LossConfig(weight=0.25, gamma=2.0),
            LossConfig(weight=np.array([0.5, 1.5, 2.0])),
        ]
        for seed in range(10):
            for loss_config in configs:
                worst = max(worst, _network_gradient_error(seed, loss_config))
        assert worst < 1e-5
        assert time.perf_counter() - started < 30.0


def _two_blobs(n_a, n_b, distance, seed):
    rng = SeededRng(seed)
    a = rng.normal(size=(n_a, 2))
    b = rng.normal(size=(n_b, 2))
    b[:, 0] += distance
    return LabeledDataset(
        np.concatenate([a, b]),
        np.concatenate([np.zeros(n_a, dtype=int), np.ones(n_b, dtype=int)]),
        ["majority", "minority"],
    )


def _on_some_segment(row, members, tol=1e-9):
    for i in range(members.shape[0]):
        v = row - members[i]
        for j in range(members.shape[0]):
            if i == j:
                continue
            seg = members[j] - members[i]
            denom = float(seg @ seg)
            if denom == 0.0:
                continue
            lam = float(v @ seg) / denom
            if -tol <= lam <= 1 + tol and np.linalg.norm(v - lam * seg) < tol:
                return True
    return False


def test_criterion_5_resampler_geometry():
    with criterion(5, "SMOTE betweenness, ENN planted-flip removal, minority recovery"):
        started = time.perf_counter()
        # every synthetic lies on a segment between two same-class points
        data = _two_blobs(40, 15, 6.0, seed=50)
        synth = smote_generate(data, 1, 150, 5, SeededRng(51))
        members = data.features[data.labels == 1]
        assert all(_on_some_segment(row, members) for row in synth)

        # planted mislabeled point removed in at least 95 of 100 seeded trials
        hits = 0
        for trial in range(100):
            clean = _two_blobs(40, 40, 8.0, seed=1000 + trial)
            features = clean.features.copy()
            plant_rng = SeededRng(2000 + trial)
            features[0] = np.array([8.0, 0.0]) + plant_rng.normal(size=2) * 0.3
            planted = LabeledDataset(features, clean.labels, clean.class_names)
            _, removed = enn_filter(planted, k=3)
            if removed.tolist() == [0]:
                hits += 1
        assert hits >= 95

        # 90/10 blobs recover at least a 0.40 minority share
        skewed = _two_blobs(90, 10, 6.0, seed=52)
        balanced = smote_enn(skewed, rng=SeededRng(53))
        _, pct = class_distribution(balanced)
        assert pct[1] / 100.0 >= 0.40
        assert time.perf_counter() - started < 20.0


def test_criterion_6_statistics_oracle():
    with criterion(6, "paired t, p-value, and effect size against the frozen reference"):
        result = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert abs(result.t_statistic - 4.2426) < 1e-3
        assert abs(result.p_value - 0.0132) < 1e-3
        assert abs(cohens_d([1, 2, 3, 4, 5], [0, 0, 0, 0, 0]) - 1.897) < 1e-3

        null = paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        assert null.t_statistic == 0.0
        assert null.p_value == 1.0
        assert null.cohens_d == 0.0


def _benchmark_config() -> ExperimentConfig:
    return load_config(str(BENCHMARK_CFG))


def test_criterion_7_end_to_end_benchmark():
    with criterion(7, "desk benchmark: 5 optimizers x 5 seeds all reach 0.90"):
        config = _benchmark_config()

        # the generator's classes are separable: nearest-centroid (the Bayes
        # rule for equal covariances) must already clear the bar
        data = synthetic_benchmark(
            n_samples=config.synthetic_samples,
            n_features=config.synthetic_features,
            priors=config.synthetic_priors,
            separation=config.synthetic_separation,
            seed=config.data_seed,
        )
        fit_idx, held_idx = split_indices(data.labels, 0.2, SeededRng(7))
        fit, held = data.subset(fit_idx), data.subset(held_idx)
        centroids = np.stack([fit.features[fit.labels == c].mean(axis=0) for c in range(3)])
        dists = ((held.features[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        oracle_accuracy = float(np.mean(dists.argmin(axis=1) == held.labels))
        assert oracle_accuracy >= 0.90

        started = time.perf_counter()
        accuracies = {}
        for optimizer in ("adam", "amsgrad", "adamw", "adabound", "dbs_adam"):
            for seed in config.seeds:
                run = train(replace(_benchmark_config(), optimizer=optimizer), seed)
                accuracies[(optimizer, seed)] = run.metrics.accuracy
        elapsed = time.perf_counter() - started
        worst = min(accuracies.values())
        print(f"  25 runs in {elapsed:.0f}s, worst accuracy {worst:.3f}")
        assert elapsed < 300.0
        assert all(a >= 0.90 for a in accuracies.values())

        # bit-identical re-run of one cell
        cfg = replace(_benchmark_config(), optimizer="dbs_adam")
        first = train(cfg, config.seeds[0])
        second = train(cfg, config.seeds[0])
        assert first.metrics == second.metrics
        assert first.train_losses == second.train_losses
        assert first.lr_trace == second.lr_trace


def test_criterion_8_sensitivity_grid():
    with criterion(8, "4x3 sensitivity grid completes with bounded spread"):
        config = _benchmark_config()
        report = sensitivity_sweep(config)  # default grids, 2 seeds per cell
        assert len(report.sweep) == 12
        cell_accuracy = [cell["metrics"]["accuracy"][0] for cell in report.sweep]
        spread_pp = 100.0 * (max(cell_accuracy) - min(cell_accuracy))
        print(f"  accuracy spread across cells: {spread_pp:.2f} pp")
        majority_prior = max(config.synthetic_priors)
        assert all(a >= majority_prior for a in cell_accuracy), "a cell diverged"
        assert spread_pp <= 5.0


def test_criterion_9_public_dataset_smoke():
    if not PUBLIC_CSV.exists():
        print("[criterion 9] SKIP  public CSV not present (data/addis_ababa.csv)")
        pytest.skip("public CSV not present")
    with criterion(9, "public CSV raw row count and class distribution"):
        from dbsadam.data import FeatureSchema, load_csv_dataset

        schema = FeatureSchema.from_file(str(PUBLIC_SCHEMA))
        table = load_csv_dataset(str(PUBLIC_CSV), schema)
        assert table.raw_row_count == 12_316
        counts = np.bincount(table.labels, minlength=len(table.class_names)).astype(float)
        pct = sorted(100.0 * counts / counts.sum(), reverse=True)
        expected = sorted([57.47, 36.12, 6.18, 0.22], reverse=True)[: len(pct)]
        for got, want in zip(pct, expected):
            assert abs(got - want) < 0.1
