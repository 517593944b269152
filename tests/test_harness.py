import csv
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dbsadam.harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    _from_shared_fields,
    _jsonable,
    _make_loss_config,
    compare_optimizers,
    emit_report,
    load_config,
    prepare_split,
    prepare_training,
    sensitivity_sweep,
    train,
)
from dbsadam.losses import default_class_weights
from dbsadam.optimizers import OptimizerConfig


def tiny_config(**overrides):
    base = dict(
        synthetic_samples=240,
        synthetic_features=6,
        synthetic_priors=(0.5, 0.3, 0.2),
        hidden1=4,
        hidden2=3,
        dense_units=4,
        dropout_rate=0.0,
        sequence_chunks=2,
        resampler="none",
        loss="cross_entropy",
        max_epochs=3,
        patience=3,
        seeds=(1, 2),
        warmup_batches=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        ExperimentConfig()

    @pytest.mark.parametrize("config", [ExperimentConfig(), OptimizerConfig()], ids=lambda c: type(c).__name__)
    def test_configs_are_frozen(self, config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.base_lr = 0.5

    def test_replace_checks_the_copy(self):
        config = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"))
        with pytest.raises(ConfigError, match="resampler"):
            replace(config, resampler="bogus")

    def test_every_optimizer_setting_is_a_key_with_an_equal_default(self):
        defaults = ExperimentConfig()
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for f in dataclasses.fields(OptimizerConfig):
            assert f.name in keys, f.name
            assert getattr(defaults, f.name) == f.default, f.name
        assert _from_shared_fields(defaults) == OptimizerConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"batch_size": 0},
            {"patience": 31},
            {"seeds": ()},
            {"seeds": (1, 1)},
            {"optimizer": "sgd"},
            {"resampler": "undersample"},
            {"loss": "hinge"},
            {"d_min": 0.0},
            {"d_min": 0.9, "d_max": 0.5},
            {"dataset": "data.csv"},
            {"base_lr": -1.0},
            {"beta1": 1.5},
            {"sequence_chunks": 0},
            {"ema_beta": 1.5},
            {"warmup_batches": -3},
            {"smote_k": 0},
            {"enn_k": 0},
            {"adasyn_k": 0},
            {"gamma": -1.0},
            {"focal_alpha": -1.0},
            {"focal_alpha": 0.0},
            {"dropout_rate": 1.5},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.1},
            {"hidden1": 0},
            {"hidden2": 0},
            {"dense_units": 0},
            {"max_epochs": 0, "patience": 0},
            {"synthetic_samples": 0},
            {"synthetic_features": 2},
            {"test_fraction": 0.0},
            {"test_fraction": 1.0},
            {"validation_fraction": 0.0},
            {"validation_fraction": -0.1},
            {"synthetic_priors": ()},
            {"synthetic_priors": (0.5, 0.3, -0.2)},
            {"synthetic_priors": (0.5, 0.0, 0.5)},
            {"synthetic_priors": (0.5, math.nan, 0.2)},
            {"synthetic_priors": (0.5, math.inf, 0.2)},
            {"clip_k": math.inf},
            {"norm_epsilon": 0.0},
            {"optimizers": ("adam", "adam")},
            {"beta_grid": (0.9, 1.5)},
            {"alpha_grid": (0.5, -0.1)},
        ],
    )
    def test_invalid_rejected(self, overrides):
        # the message names the offending key, so a bad focal_alpha says
        # focal_alpha and not the loss's internal weight
        with pytest.raises(ConfigError, match=re.escape(next(iter(overrides)))):
            ExperimentConfig(**overrides)


class TestConfigFieldTypes:
    def test_a_list_is_stored_as_a_tuple_and_the_config_hashes(self):
        config = ExperimentConfig(seeds=[1, 2], beta_grid=[0.9])
        assert config.seeds == (1, 2) and config.beta_grid == (0.9,)
        assert hash(config) == hash(ExperimentConfig(seeds=(1, 2), beta_grid=(0.9,)))

    def test_a_float_field_stores_a_float(self):
        config = ExperimentConfig(base_lr=1, synthetic_priors=(1, 2))
        assert type(config.base_lr) is float and config.base_lr == 1.0
        assert [type(p) for p in config.synthetic_priors] == [float, float]

    def test_an_int_field_takes_any_integer_and_stores_an_int(self):
        config = ExperimentConfig(data_seed=np.int64(5), seeds=(np.int32(1), 2))
        assert type(config.data_seed) is int and config.data_seed == 5
        assert [type(s) for s in config.seeds] == [int, int]

    @pytest.mark.parametrize("overrides", [
        {"batch_size": 2.5},
        {"max_epochs": True, "patience": 0},
        {"base_lr": True},
        {"base_lr": "0.1"},
        {"seeds": (1, 2.0)},
        {"drop_labels": "Unknown"},
        {"optimizers": "adam"},
        {"output_dir": 5},
    ])
    def test_a_value_of_the_wrong_type_is_rejected(self, overrides):
        with pytest.raises(ConfigError, match=re.escape(next(iter(overrides)))):
            ExperimentConfig(**overrides)


class TestConfigFile:
    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\noptimizer = adam\nbase_lr = 0.01\nseeds = 7, 8, 9\n"
            "epsilon = 1e-8\n",
            encoding="utf-8",
        )
        config = load_config(str(path), {"base_lr": "0.02"})
        assert config.optimizer == "adam"
        assert config.base_lr == 0.02  # override wins
        assert config.seeds == (7, 8, 9)
        assert config.epsilon == 1e-8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 0.1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("batch_size = many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="many"):
            load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.cfg")

    def test_byte_order_mark_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" and some editors start a file with EF BB BF
        text = "max_epochs = 8\nseeds = 7, 8\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        config = load_config(str(marked))
        assert (config.max_epochs, config.seeds) == (8, (7, 8))
        assert config == load_config(str(plain))

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seeds = 1, 2\nbase_lr = 0.01\nseeds = 3, 4\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: key 'seeds' is set twice"):
            load_config(str(path))
        path.write_text("seeds = 1, 2\n", encoding="utf-8")
        assert load_config(str(path), {"seeds": "3, 4"}).seeds == (3, 4)  # a flag still wins

    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg")),
                             ids=lambda p: p.name)
    def test_shipped_configs_load(self, path):
        load_config(str(path))

    def test_readme_key_table_lists_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| group | keys |", 1)[1].split("\n\n", 1)[0]
        listed = []
        for row in table.splitlines()[2:]:
            keys = row.split("|")[2]
            # parenthesized text holds allowed values, not keys
            listed += re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys))
        assert sorted(listed) == sorted(f.name for f in dataclasses.fields(ExperimentConfig))


class TestSplits:
    def test_split_depends_on_seed_not_optimizer(self):
        cfg_a = tiny_config(optimizer="adam")
        cfg_b = tiny_config(optimizer="dbs_adam")
        for seed in (1, 2):
            train_a, test_a = prepare_split(cfg_a, seed)
            train_b, test_b = prepare_split(cfg_b, seed)
            assert np.array_equal(train_a.features, train_b.features)
            assert np.array_equal(test_a.features, test_b.features)

    def test_different_seeds_differ(self):
        cfg = tiny_config()
        _, test_1 = prepare_split(cfg, 1)
        _, test_2 = prepare_split(cfg, 2)
        assert not np.array_equal(test_1.features, test_2.features)

    def test_resampling_never_touches_test_rows(self):
        from dbsadam.data import synthetic_benchmark

        cfg = tiny_config(resampler="smote_enn")
        original = synthetic_benchmark(
            n_samples=cfg.synthetic_samples,
            n_features=cfg.synthetic_features,
            priors=cfg.synthetic_priors,
            separation=cfg.synthetic_separation,
            seed=cfg.data_seed,
        )
        rows = {tuple(r) for r in original.features}
        _, test_ds = prepare_split(cfg, 1)
        assert all(tuple(r) in rows for r in test_ds.features)


class TestTrain:
    def test_deterministic_metrics(self):
        cfg = tiny_config(optimizer="dbs_adam", dropout_rate=0.2)
        a = train(cfg, 1)
        b = train(cfg, 1)
        assert a.metrics == b.metrics
        assert a.train_losses == b.train_losses
        assert a.val_losses == b.val_losses
        assert a.lr_trace == b.lr_trace

    def test_patience_zero_stops_one_epoch_after_first_non_improvement(self):
        cfg = tiny_config(patience=0, max_epochs=30, base_lr=0.2)  # big lr forces bouncing
        run = train(cfg, 1)
        if run.epochs_run < cfg.max_epochs:  # early-stopped
            assert run.epochs_run == run.best_epoch + 1

    def test_best_epoch_has_minimum_validation_loss(self):
        cfg = tiny_config(max_epochs=5)
        run = train(cfg, 2)
        assert run.best_epoch == int(np.argmin(run.val_losses)) + 1
        assert run.epochs_run == len(run.val_losses)

    def test_dbs_lr_trace_respects_band(self):
        cfg = tiny_config(optimizer="dbs_adam", d_min=0.2, d_max=0.9)
        run = train(cfg, 1)
        assert run.lr_trace is not None
        lo, hi = cfg.base_lr * 0.2, cfg.base_lr * 0.9
        assert all(lo <= lr <= hi for lr in run.lr_trace)
        assert run.lr_summary == (min(run.lr_trace), pytest.approx(np.mean(run.lr_trace)), max(run.lr_trace))

    def test_non_dbs_runs_have_no_trace(self):
        run = train(tiny_config(optimizer="adam"), 1)
        assert run.lr_trace is None
        assert run.lr_summary is None

    def test_pinned_dbs_equals_adam_at_scaled_rate_end_to_end(self):
        c = 0.5
        cfg_dbs = tiny_config(optimizer="dbs_adam", d_min=c, d_max=c, base_lr=0.001)
        cfg_adam = tiny_config(optimizer="adam", base_lr=0.001 * c)
        run_dbs = train(cfg_dbs, 2)
        run_adam = train(cfg_adam, 2)
        assert run_dbs.metrics.accuracy == run_adam.metrics.accuracy
        assert run_dbs.train_losses == run_adam.train_losses
        assert run_dbs.val_losses == run_adam.val_losses

    def test_loss_names_map_to_weight_and_gamma(self, monkeypatch):
        import dbsadam.harness as harness

        # ADASYN moves the class counts, so the weights must come from the
        # resampled training labels that train() fits
        cfg = tiny_config(resampler="adasyn", gamma=1.5, focal_alpha=0.4, max_epochs=1, patience=0)
        fit_ds, resampled, _, _ = prepare_training(cfg, 1)
        counts = np.bincount(resampled.labels, minlength=resampled.n_classes)
        assert not np.array_equal(counts, np.bincount(fit_ds.labels, minlength=fit_ds.n_classes))
        expected = {
            "cross_entropy": (1.0, 0.0),
            "weighted_cross_entropy": (default_class_weights(counts), 0.0),
            "focal": (0.4, 1.5),
        }
        made = []

        def spy(*args):
            made.append(_make_loss_config(*args))
            return made[-1]

        monkeypatch.setattr(harness, "_make_loss_config", spy)
        for loss, (weight, gamma) in expected.items():
            train(replace(cfg, loss=loss), 1)
            assert np.array_equal(made[-1].weight, weight), loss
            assert made[-1].gamma == gamma, loss

    def test_weighted_loss_path(self):
        run = train(tiny_config(loss="weighted_cross_entropy"), 1)
        assert math.isfinite(run.metrics.mean_loss)

    def test_component_error_carries_run_context(self, monkeypatch):
        import dbsadam.harness as harness

        def boom(*args, **kwargs):
            raise ValueError("injected failure")

        monkeypatch.setattr(harness, "network_backward", boom)
        with pytest.raises(RuntimeError, match=r"seed=1, epoch=1, batch=0"):
            train(tiny_config(), 1)

    @pytest.mark.parametrize(
        "overrides, split",
        [
            ({"synthetic_samples": 60, "validation_fraction": 0.01}, "validation"),
            ({"test_fraction": 0.001}, "test"),
        ],
    )
    def test_empty_split_named(self, overrides, split):
        # a positive fraction can still round to 0 rows in every class
        with pytest.raises(ValueError, match=f"the {split} split has 0 rows"):
            train(tiny_config(**overrides), 1)

    def test_early_stopping_restores_best_epoch_weights(self):
        # a run truncated exactly at the best epoch ends with the same
        # weights the longer run restores, so test metrics must coincide
        long_cfg = tiny_config(max_epochs=8, patience=8, base_lr=0.05)
        long_run = train(long_cfg, 1)
        best = long_run.best_epoch
        short_cfg = tiny_config(max_epochs=best, patience=best, base_lr=0.05)
        short_run = train(short_cfg, 1)
        assert short_run.val_losses == long_run.val_losses[:best]
        assert short_run.metrics == long_run.metrics

    def test_adasyn_path(self):
        cfg = tiny_config(resampler="adasyn", synthetic_priors=(0.7, 0.2, 0.1))
        run = train(cfg, 1)
        assert math.isfinite(run.metrics.accuracy)

    def test_csv_pipeline_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = ["cat,x,y,label"]
        for i in range(120):
            c = i % 2
            lines.append(
                f"{'p' if rng.uniform() < 0.5 else 'q'},{rng.normal() + 4 * c:.4f},"
                f"{rng.normal():.4f},{'pos' if c else 'neg'}"
            )
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text(
            "cat: feature_categorical\nx: feature_numeric\ny: feature_numeric\nlabel: label\n",
            encoding="utf-8",
        )
        cfg = tiny_config(dataset=str(csv_path), schema_file=str(schema_path))
        run = train(cfg, 1)
        assert run.metrics.accuracy > 0.5  # x separates the classes by 4 sigma

    def test_csv_encoder_fitted_on_the_rows_train_fits(self, tmp_path):
        rng = np.random.default_rng(1)
        lines = ["x,y,cat,label"]
        for i in range(300):
            lines.append(
                f"{rng.normal(3.0, 2.5):.4f},{rng.exponential(2.0):.4f},"
                f"{'pq'[i % 2]},{'abc'[i % 3]}"
            )
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text(
            "x: feature_numeric\ny: feature_numeric\ncat: feature_categorical\nlabel: label\n",
            encoding="utf-8",
        )
        cfg = tiny_config(dataset=str(csv_path), schema_file=str(schema_path))
        fit_ds, _, val_ds, _ = prepare_training(cfg, 1)
        assert val_ds.n_samples > 0
        numeric = fit_ds.features[:, :2]  # x and y, encoded first in schema order
        np.testing.assert_allclose(numeric.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(numeric.std(axis=0), 1.0, atol=1e-12)


class TestOneRunPath:
    """train() is the one-job case of the runner compare and sweep use."""

    def test_train_equals_the_matching_compare_run(self):
        cfg = tiny_config(optimizers=("adam", "dbs_adam"), dropout_rate=0.2, resampler="smote_enn")
        report = compare_optimizers(cfg, seeds=(1, 2))
        assert {run.optimizer for run in report.runs} == {"adam", "dbs_adam"}
        for run in report.runs:
            alone = train(replace(cfg, optimizer=run.optimizer), run.seed)
            assert alone.wall_clock > 0
            # bit for bit in every field but the timing
            assert pickle.dumps(replace(alone, wall_clock=0.0)) == pickle.dumps(replace(run, wall_clock=0.0))

    def test_train_starts_no_pool(self, monkeypatch):
        import concurrent.futures

        import dbsadam.harness as harness

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was built")

        for var in harness._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        cfg = tiny_config(optimizers=("adam", "dbs_adam"), max_epochs=1, patience=1)
        assert train(cfg, 1).epochs_run == 1
        # the same settings give compare its two workers, so the spy is live
        with pytest.raises(AssertionError, match="a process pool was built"):
            compare_optimizers(cfg, seeds=(1, 2))


class TestCompare:
    def test_self_comparison_is_null(self):
        # optimizer names must be distinct; dbs_adam with its difficulty
        # pinned at 1 takes Adam's steps, so it compares as Adam with itself
        cfg = tiny_config(optimizers=("adam", "dbs_adam"), d_min=1.0, d_max=1.0)
        report = compare_optimizers(cfg, seeds=(1, 2))
        assert len(report.significance) == 5  # one pair x five metrics
        for entry in report.significance:
            result = entry["result"]
            assert result.t_statistic == 0.0
            assert result.p_value == 1.0
            assert result.cohens_d == 0.0

    def test_pair_and_metric_counts(self):
        cfg = tiny_config(optimizers=("adam", "amsgrad", "dbs_adam"))
        report = compare_optimizers(cfg, seeds=(1, 2))
        assert len(report.runs) == 3 * 2
        assert len(report.significance) == 3 * 5  # C(3,2) pairs x metrics
        assert set(report.aggregates) == {"adam", "amsgrad", "dbs_adam"}
        for metrics in report.aggregates.values():
            assert set(metrics) == {"accuracy", "precision", "recall", "f1", "loss"}

    def test_requires_two_optimizers_and_seeds(self):
        with pytest.raises(ConfigError):
            compare_optimizers(tiny_config(optimizers=("adam",)), seeds=(1, 2))
        with pytest.raises(ConfigError):
            compare_optimizers(tiny_config(optimizers=("adam", "adamw")), seeds=(1,))

    def test_duplicate_seed_argument_rejected(self):
        # three copies of one seed would t-test three copies of one pair
        with pytest.raises(ConfigError, match="distinct"):
            compare_optimizers(tiny_config(optimizers=("adam", "adamw")), seeds=(42, 42, 42))

    def test_negative_seed_argument_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            compare_optimizers(tiny_config(optimizers=("adam", "adamw")), seeds=(-1, 2))


class TestSweep:
    def test_grid_shape_and_cell_schema(self):
        cfg = tiny_config(max_epochs=2, patience=2)
        report = sensitivity_sweep(replace(cfg, beta_grid=(0.8, 0.95), alpha_grid=(0.3, 0.7), seeds=(1, 2)))
        assert len(report.sweep) == 4
        for cell in report.sweep:
            assert set(cell) == {"beta", "alpha", "seeds", "metrics"}
            for key in ("accuracy", "precision", "recall"):
                assert key in cell["metrics"]
        assert len(report.runs) == 4 * 2
        assert all(run.optimizer == "dbs_adam" for run in report.runs)

    def test_single_cell_matches_direct_runs(self):
        cfg = tiny_config()
        report = sensitivity_sweep(replace(cfg, beta_grid=(0.9,), alpha_grid=(0.5,), seeds=(1, 2)))
        cell = report.sweep[0]
        direct_cfg = tiny_config(optimizer="dbs_adam", ema_beta=0.9, alpha_mix=0.5)
        direct = [train(direct_cfg, s) for s in (1, 2)]
        expected = np.mean([r.metrics.accuracy for r in direct])
        assert cell["metrics"]["accuracy"][0] == pytest.approx(expected)

    def test_duplicate_seed_argument_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            sensitivity_sweep(replace(tiny_config(), beta_grid=(0.9,), alpha_grid=(0.5,), seeds=(42, 42)))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sensitivity_sweep(replace(tiny_config(), beta_grid=(), alpha_grid=(0.3,)))

    def test_invalid_grid_value_rejected_before_any_training(self, monkeypatch):
        import dbsadam.harness as harness

        # a sweep starts its runs by preparing each seed's data
        def run_started(*args):
            raise AssertionError("a run started before the grids were checked")

        monkeypatch.setattr(harness, "prepare_training", run_started)
        for grids in [
            dict(beta_grid=(0.9, 1.5), alpha_grid=(0.5,)),
            dict(beta_grid=(0.9,), alpha_grid=(0.5, 1.2)),
            dict(beta_grid=(0.9, 1.5)),
        ]:
            with pytest.raises(ConfigError, match="grid"):
                sensitivity_sweep(tiny_config(**grids))


class TestWorkerCount:
    @pytest.mark.parametrize(
        "env, jobs, platform, expected",
        [
            ({}, 10, "linux", 1),  # BLAS at its default: one thread per CPU
            ({"OPENBLAS_NUM_THREADS": "1"}, 10, "linux", 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, 10, "linux", 1),
            ({"OPENBLAS_NUM_THREADS": "4"}, 10, "linux", 1),
            ({"OMP_NUM_THREADS": "1"}, 10, "linux", 2),
            ({"MKL_NUM_THREADS": "1"}, 10, "linux", 2),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 10, "linux", 1),
            *(({"OPENBLAS_NUM_THREADS": bad}, 10, "linux", 1) for bad in ("0", "", "abc", "-1")),
            *(({"OPENBLAS_NUM_THREADS": bad, "OMP_NUM_THREADS": "1"}, 10, "linux", 2)
              for bad in ("0", "", "abc", "-1")),
            ({"OPENBLAS_NUM_THREADS": "1"}, 1, "linux", 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 10, "darwin", 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 10, "win32", 1),
        ],
    )
    def test_one_worker_per_cpu_that_blas_leaves_free(self, monkeypatch, env, jobs, platform, expected):
        import dbsadam.harness as harness

        for var in harness._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sys, "platform", platform)
        assert harness._worker_count(jobs) == expected


class TestSearchThreads:
    """The neighbour search runs on numerics._free_cpus threads, the rule
    behind _worker_count."""

    @pytest.mark.parametrize(
        "env, platform, pool_worker, expected",
        [
            ({}, "linux", False, 1),  # BLAS at its default: one thread per CPU
            ({"OPENBLAS_NUM_THREADS": "1"}, "linux", False, 2),
            ({"OPENBLAS_NUM_THREADS": "2"}, "linux", False, 1),
            ({"OMP_NUM_THREADS": "1"}, "linux", False, 2),
            ({"OPENBLAS_NUM_THREADS": "abc", "MKL_NUM_THREADS": "1"}, "linux", False, 2),
            ({"OPENBLAS_NUM_THREADS": "1"}, "linux", True, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, "darwin", False, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, "win32", False, 1),
        ],
    )
    def test_one_thread_per_cpu_that_blas_leaves_free(self, monkeypatch, env, platform, pool_worker,
                                                      expected):
        from dbsadam import numerics

        for var in numerics._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sys, "platform", platform)
        monkeypatch.setattr(numerics, "_in_pool_worker", pool_worker)
        assert numerics._free_cpus() == expected

    def test_threads_are_joined_before_a_fork(self, monkeypatch):
        # two free CPUs and one row per block, so smote_enn's searches start
        # helper threads; none may outlive prepare_training or train, where
        # _train_runs would fork them into its workers
        import threading

        from dbsadam import numerics, resampling

        for var in numerics._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(sys, "platform", "linux")
        monkeypatch.setattr(resampling, "_BLOCK_BYTES", 0)
        starts = []
        real_start = threading.Thread.start

        def counting_start(thread):
            starts.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        before = threading.active_count()
        cfg = tiny_config(resampler="smote_enn", max_epochs=1, patience=1)
        prepare_training(cfg, 1)
        assert starts and threading.active_count() == before
        started = len(starts)
        train(cfg, 1)
        assert len(starts) > started and threading.active_count() == before


class TestWorkerPool:
    """compare and sweep through a forced pool of two worker processes."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        import dbsadam.harness as harness

        monkeypatch.setattr(harness, "_worker_count", lambda jobs: 2)

    def test_first_failing_run_raises_its_error(self, monkeypatch):
        import dbsadam.harness as harness

        def boom(*args, **kwargs):
            raise ValueError("injected failure")

        # only the dbs_adam runs fail; the first of them in job order is seed 2's
        monkeypatch.setattr(harness, "dbs_adam_step", boom)
        cfg = tiny_config(optimizers=("adam", "dbs_adam"))
        with pytest.raises(RuntimeError) as info:
            compare_optimizers(cfg, seeds=(2, 1))
        assert str(info.value) == "run aborted (seed=2, epoch=1, batch=0): injected failure"
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises_broken_pool(self, monkeypatch):
        import dbsadam.harness as harness
        from concurrent.futures.process import BrokenProcessPool

        caller = os.getpid()

        def die(*args, **kwargs):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("the step ran in the calling process")

        monkeypatch.setattr(harness, "dbs_adam_step", die)
        with pytest.raises(BrokenProcessPool):
            compare_optimizers(tiny_config(optimizers=("adam", "dbs_adam")), seeds=(1, 2))
        assert multiprocessing.active_children() == []

    def test_data_prepared_once_per_seed_in_the_caller(self, monkeypatch, tmp_path):
        import dbsadam.harness as harness

        # a file, not a list: calls made in a worker would not reach a list here
        log = tmp_path / "prepared.txt"
        prepare = harness.prepare_training

        def spy(config, seed):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()} {seed}\n")
            return prepare(config, seed)

        monkeypatch.setattr(harness, "prepare_training", spy)
        cfg = tiny_config(max_epochs=1, patience=1)
        expected = [f"{os.getpid()} {seed}" for seed in (1, 2)]
        compare_optimizers(replace(cfg, optimizers=("adam", "amsgrad", "dbs_adam")), seeds=(1, 2))
        assert log.read_text(encoding="utf-8").splitlines() == expected
        log.unlink()
        sensitivity_sweep(replace(cfg, beta_grid=(0.8, 0.9), alpha_grid=(0.5,)))
        assert log.read_text(encoding="utf-8").splitlines() == expected
        assert multiprocessing.active_children() == []

    def test_runs_keep_their_order(self):
        cfg = tiny_config(optimizers=("adam", "amsgrad", "dbs_adam"), max_epochs=1, patience=1)
        report = compare_optimizers(cfg, seeds=(2, 1))
        assert [(r.optimizer, r.seed) for r in report.runs] == [
            (name, seed) for name in cfg.optimizers for seed in (2, 1)]
        report = sensitivity_sweep(replace(cfg, beta_grid=(0.8, 0.9), alpha_grid=(0.5,)))
        assert [(r.tag, r.seed) for r in report.runs] == [
            (f"beta={b},alpha=0.5", seed) for b in (0.8, 0.9) for seed in (1, 2)]


class TestEmitReport:
    def test_empty_report_is_valid_json(self, tmp_path):
        paths = emit_report(ComparisonReport(), str(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["runs"] == []
        assert payload["significance"] == []

    def test_reemit_is_byte_identical(self, tmp_path):
        report = compare_optimizers(tiny_config(optimizers=("adam", "adamw")), seeds=(1, 2))
        emit_report(report, str(tmp_path / "a"))
        emit_report(report, str(tmp_path / "b"))
        for name in ("report.json", "runs.csv", "lr_trace.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("victim", ["report.json", "runs.csv", "lr_trace.csv"])
    def test_failed_write_keeps_previous_file(self, tmp_path, full_disk, victim):
        report = compare_optimizers(tiny_config(optimizers=("adam", "dbs_adam")), seeds=(1, 2))
        emit_report(report, str(tmp_path))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        full_disk(victim)
        with pytest.raises(RuntimeError, match="No space left"):
            emit_report(report, str(tmp_path))
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_sweep_trace_rows_are_keyed_by_tag(self, tmp_path):
        # the cells of a sweep share optimizer and seeds; only the tag tells them apart
        cfg = tiny_config(beta_grid=(0.8, 0.9), alpha_grid=(0.5,), sweep_seeds=1)
        report = sensitivity_sweep(cfg)
        emit_report(report, str(tmp_path), formats=("csv",))
        with open(tmp_path / "lr_trace.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["optimizer", "seed", "tag", "batch", "learning_rate"]
        keys = [(row["optimizer"], row["seed"], row["tag"], row["batch"]) for row in rows]
        assert len(set(keys)) == len(keys) == sum(len(run.lr_trace) for run in report.runs)
        assert {row["tag"] for row in rows} == {"beta=0.8,alpha=0.5", "beta=0.9,alpha=0.5"}

    def test_csv_row_count(self, tmp_path):
        report = compare_optimizers(tiny_config(optimizers=("adam", "adamw")), seeds=(1, 2))
        emit_report(report, str(tmp_path))
        lines = (tmp_path / "runs.csv").read_text().strip().splitlines()
        assert len(lines) == len(report.runs) + 1

    def test_round_trip_through_json(self, tmp_path):
        # emitting the loaded report.json reproduces every file byte for byte
        cfg = tiny_config(optimizers=("adam", "dbs_adam"))
        report = compare_optimizers(cfg, seeds=(1, 2))
        emit_report(report, str(tmp_path))
        payload = json.loads((tmp_path / "report.json").read_text())
        emit_report(payload, str(tmp_path / "again"))
        for name in ("report.json", "runs.csv", "lr_trace.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_null_number_is_an_empty_csv_cell(self, tmp_path):
        # report.json holds a non-finite float as null
        report = compare_optimizers(tiny_config(optimizers=("adam", "adamw")), seeds=(1, 2))
        payload = _jsonable(report)
        payload["runs"][0]["metrics"]["mean_loss"] = None
        emit_report(payload, str(tmp_path), formats=("csv",))
        rows = (tmp_path / "runs.csv").read_text().splitlines()
        header, first = rows[0].split(","), rows[1].split(",")
        assert first[header.index("loss")] == ""
        assert first[header.index("lr_mean")] == ""
