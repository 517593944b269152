import json
from dataclasses import fields

import numpy as np
import pytest

from dbsadam.cli import build_parser, main
from dbsadam.harness import ExperimentConfig

TINY = """
synthetic_samples = 240
synthetic_features = 6
synthetic_priors = 0.5, 0.3, 0.2
hidden1 = 4
hidden2 = 3
dense_units = 4
dropout_rate = 0.0
sequence_chunks = 2
resampler = none
loss = cross_entropy
max_epochs = 2
patience = 2
seeds = 1, 2
warmup_batches = 2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


class TestTrainCommand:
    def test_success_writes_reports(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", config_file, "--optimizer", "adam", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "runs.csv").exists()
        assert "accuracy" in capsys.readouterr().out

    def test_seed_override(self, config_file, tmp_path):
        out = tmp_path / "out"
        code = main(["train", "--config", config_file, "--seeds", "5", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["runs"][0]["seed"] == 5


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("not_a_key = 1\n", encoding="utf-8")
        assert main(["train", "--config", str(bad)]) == 1

    def test_invalid_value_is_config_error(self, config_file):
        for flags in [
            ("--batch_size", "0"),
            ("--hidden1", "abc"),
            ("--base_lr", "-1"),
            ("--beta1", "1.5"),
            ("--sequence_chunks", "0"),
            ("--ema_beta", "1.5"),
            ("--warmup_batches", "-3"),
            ("--smote_k", "0", "--resampler", "smote_enn"),
            ("--smote_k", "-2", "--resampler", "smote_enn"),
            ("--enn_k", "0", "--resampler", "smote_enn"),
            ("--adasyn_k", "0", "--resampler", "adasyn"),
            ("--gamma", "-1"),
            ("--focal_alpha", "-1"),
            ("--focal_alpha", "0"),
            ("--focal_alpha", "-1", "--loss", "focal"),
            ("--dropout_rate", "1.5"),
            ("--hidden1", "0"),
            ("--hidden2", "0"),
            ("--dense_units", "0"),
            ("--max_epochs", "0", "--patience", "0"),
            ("--synthetic_samples", "0"),
            ("--synthetic_features", "2"),
            ("--validation_fraction", "0"),
            ("--test_fraction", "0"),
            ("--synthetic_priors", "0.5,0.3,-0.2"),
            ("--synthetic_priors", ""),
            ("--synthetic_priors", "0.5,nan,0.2"),
            ("--optimizers", "adam,adam"),
            ("--beta_grid", "0.9,1.5"),
            ("--alpha_grid", "0.5,1.2"),
            ("--out", ""),
            # removed keys are unknown flags now
            ("--eps_inside_sqrt", "true"),
            ("--grad_norm_mode", "mean_per_tensor"),
            ("--aggregation", "mean"),
            # so are the removed shorthands and prefix abbreviations
            ("--seed", "5"),
            ("--beta", "0.5"),
            ("--alpha", "0.5"),
            ("--betas", "0.9"),
            ("--alphas", "0.5"),
            ("--dense", "4"),
        ]:
            assert main(["train", "--config", config_file, *flags]) == 1, flags

    @pytest.mark.parametrize("key, value", [
        ("base_lr", "nan"),
        ("base_lr", "inf"),
        ("epsilon", "nan"),
        ("gamma", "nan"),
        ("synthetic_separation", "nan"),
        ("adabound_gamma", "0"),
        ("weight_decay", "-5"),
        ("weight_decay", "nan"),
        ("adabound_final_lr", "-1"),
        ("focal_alpha", "inf"),
        ("seeds", "-5"),
        ("seeds", "1,-2"),
        ("data_seed", "-1"),
    ])
    def test_non_finite_or_out_of_range_value_is_config_error(self, config_file, key, value, capsys):
        assert main(["train", "--config", config_file, f"--{key}", value]) == 1
        assert key in capsys.readouterr().err

    def test_unknown_flag_is_config_error(self):
        assert main(["train", "--definitely-not-a-flag", "1"]) == 1

    def test_empty_report_out_is_config_error(self, tmp_path, capsys):
        # checked before the input is read: an absent input would exit 2
        code = main(["report", "--input", str(tmp_path / "absent.json"), "--out", ""])
        assert code == 1
        assert "--out must be non-empty" in capsys.readouterr().err

    def test_empty_validation_split_is_runtime_error(self, config_file, tmp_path, capsys):
        code = main([
            "train", "--config", config_file, "--synthetic_samples", "60",
            "--validation_fraction", "0.01", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "validation split has 0 rows" in capsys.readouterr().err

    def test_missing_dataset_file_is_runtime_error(self, tmp_path):
        schema = tmp_path / "s.txt"
        schema.write_text("x: feature_numeric\nlabel: label\n", encoding="utf-8")
        code = main([
            "train", "--dataset", str(tmp_path / "absent.csv"),
            "--schema_file", str(schema), "--out", str(tmp_path / "out"),
        ])
        assert code == 2


class TestFlagSurface:
    def test_one_flag_per_config_key(self):
        # --out is the one flag not spelled after its key (output_dir)
        expected = {"--config", "--out"} | {
            f"--{f.name}" for f in fields(ExperimentConfig) if f.name != "output_dir"
        }
        parser = build_parser()
        commands = next(a.choices for a in parser._actions if isinstance(a.choices, dict))
        for name in ("train", "compare", "sweep", "resample"):
            flags = {
                opt for action in commands[name]._actions for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"
            }
            assert flags == expected, name
        assert len(expected) == len(fields(ExperimentConfig)) + 1

    def test_out_overrides_the_config_files_output_dir(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY + f"output_dir = {tmp_path / 'from_file'}\n", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "from_flag")]) == 0
        assert (tmp_path / "from_flag" / "report.json").exists()
        assert not (tmp_path / "from_file").exists()


class TestCompareCommand:
    def test_compare_writes_all_outputs(self, config_file, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", config_file,
            "--optimizers", "adam,dbs_adam", "--seeds", "1,2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["runs"]) == 4
        assert len(payload["significance"]) == 5
        assert (out / "lr_trace.csv").read_text().count("\n") > 1  # dbs traces present


class TestSweepCommand:
    def test_small_grid(self, config_file, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--config", config_file,
            "--beta_grid", "0.9,0.95", "--alpha_grid", "0.5", "--sweep_seeds", "2",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["sweep"]) == 2


class TestResampleCommand:
    def test_writes_resampled_csv(self, config_file, tmp_path, capsys):
        out = tmp_path / "rs"
        code = main([
            "resample", "--config", config_file,
            "--resampler", "smote_enn", "--out", str(out),
        ])
        assert code == 0
        text = (out / "resampled.csv").read_text()
        assert text.splitlines()[0].endswith("label")
        assert "->" in capsys.readouterr().out

    def test_counts_match_the_set_train_fits(self, config_file, tmp_path, monkeypatch):
        # train() hands its resampled training labels to the loss config;
        # capture them there and stop the run before any fitting
        from dbsadam import harness

        class Captured(Exception):
            pass

        def capture(config, train_labels, n_classes):
            raise Captured(np.bincount(train_labels, minlength=n_classes).tolist())

        config = harness.load_config(config_file, {"resampler": "smote_enn", "seeds": "5"})
        monkeypatch.setattr(harness, "_make_loss_config", capture)
        with pytest.raises(Captured) as fitted:
            harness.train(config, 5)
        out = tmp_path / "rs"
        code = main([
            "resample", "--config", config_file, "--resampler", "smote_enn",
            "--seeds", "5", "--out", str(out),
        ])
        assert code == 0
        labels = np.loadtxt(out / "resampled.csv", delimiter=",", skiprows=1)[:, -1]
        assert np.bincount(labels.astype(np.int64)).tolist() == fitted.value.args[0]

    def test_failed_write_keeps_previous_file(self, config_file, tmp_path, full_disk, capsys):
        out = tmp_path / "rs"
        args = ["resample", "--config", config_file, "--resampler", "smote_enn", "--out", str(out)]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        full_disk("resampled.csv")
        assert main(args) == 2
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestReportCommand:
    def test_regenerates_csv_views(self, config_file, tmp_path):
        out = tmp_path / "out"
        assert main(["train", "--config", config_file, "--out", str(out)]) == 0
        regen = tmp_path / "regen"
        code = main(["report", "--input", str(out / "report.json"), "--out", str(regen)])
        assert code == 0
        for name in ("runs.csv", "lr_trace.csv"):
            assert (regen / name).read_bytes() == (out / name).read_bytes()
