"""Tests of the benchmark itself: python3 -m pytest perfbench/"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from dbsadam import harness, optimizers, resampling  # noqa: E402

BENCHMARK = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

# reduced sizes that keep every check meaningful; desk_compare keeps its
# 15 epochs, which the accuracy bar needs
SMOKE = {
    "desk_compare": {"optimizers": "adam, dbs_adam"},
    "paper_train": {"synthetic_samples": "400", "hidden1": "32", "hidden2": "16",
                    "dense_units": "8", "max_epochs": "1", "patience": "1"},
    "paper_smote_enn": {"synthetic_samples": "600"},
    "paper_adasyn": {"synthetic_samples": "1200"},
}


@pytest.fixture
def smoke(monkeypatch):
    def shrink(name: str) -> None:
        full = workloads.WORKLOADS[name]
        reduced = dataclasses.replace(full, overrides={**full.overrides, **SMOKE[name]})
        monkeypatch.setitem(workloads.WORKLOADS, name, reduced)

    return shrink


def test_self_time_subtracts_the_union_of_children():
    S = tracer.Span
    spans = [
        S("outer", 0.0, 10.0, -1, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("a.inner", 1.5, 2.0, 1, 0),
        S("b", 5.0, 6.0, 0, 0),
        # overlapping siblings are covered once
        S("c", 5.5, 7.0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 2.0 - 2.0, 1.5, 0.5, 1.0, 1.5])


def test_nested_spans_record_their_parent_and_unit():
    t = tracer.Tracer()
    t.unit = 3
    t.span("outer", lambda: t.span("inner", lambda: None))
    outer, inner = t.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("outer", -1, "inner", 0)
    assert {outer.unit, inner.unit} == {3}
    own = tracer.self_times(t.spans)
    assert own[0] == pytest.approx(outer.end - outer.start - (inner.end - inner.start))


def test_restore_puts_every_original_back_even_after_a_failing_unit():
    before = tracer.snapshot()
    train = harness.train
    t = tracer.Tracer()
    t.install()
    try:
        assert harness.train is not train
        assert not tracer.is_restored(before)
        with pytest.raises(ValueError):
            t.span("unit", resampling.enn_filter, None, k=0)
    finally:
        t.restore()
    assert tracer.is_restored(before)
    assert optimizers.OPTIMIZER_STEPS["adam"] is optimizers.adam_step
    assert "query" in resampling.NeighborIndex.__dict__
    assert not hasattr(resampling.NeighborIndex.query, "__wrapped__")


def test_metric_names_and_units_match_the_contract():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [w["name"] for w in BENCHMARK["workloads"]] + END_TO_END + PER_LAYER
    assert all(pattern.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
    t = tracer.Tracer()
    assert [*tracer.layer_metrics(t, 1), "trace.overhead_ratio"] == PER_LAYER


def test_same_seed_same_inputs():
    w = workloads.WORKLOADS["paper_train"]
    a = workloads.make_inputs(w, run.ROOT, 5, run.RESULTS)
    b = workloads.make_inputs(w, run.ROOT, 5, run.RESULTS)
    c = workloads.make_inputs(w, run.ROOT, 6, run.RESULTS)
    assert (a.config, a.run_seeds) == (b.config, b.run_seeds)
    assert (a.config.data_seed, a.run_seeds) != (c.config.data_seed, c.run_seeds)


def test_desk_compare_runs_on_a_pair_of_the_config_seeds():
    w = workloads.WORKLOADS["desk_compare"]
    pairs = {workloads.make_inputs(w, run.ROOT, s, run.RESULTS).run_seeds for s in range(40)}
    config = harness.load_config(os.path.join(run.ROOT, w.config_file))
    assert all(len(set(p)) == 2 and set(p) <= set(config.seeds) for p in pairs)
    assert len(pairs) > 1
    assert workloads.make_inputs(w, run.ROOT, 1, run.RESULTS).config.data_seed == config.data_seed


def test_check_flags_non_finite_losses_and_low_accuracy():
    inputs = workloads.make_inputs(workloads.WORKLOADS["desk_compare"], run.ROOT, 1, run.RESULTS)
    metrics = harness.MetricsReport(0.5, [], [], [], [], 0, 0, 0, 0, 0, 0, 0.1)
    bad = harness.RunResult("adam", 1, [0.3, math.nan], [0.2], 1, 2, metrics)
    failures = workloads.check(inputs, workloads.Output(runs=[bad]), enn_calls=[])
    assert any("non-finite loss" in f for f in failures)
    assert any("accuracy" in f for f in failures)
    assert any("ENN" in f for f in failures)


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_traced_run(name, smoke):
    smoke(name)
    result, record = run.measure(name, seed=1, seconds=0.1, trace=True)
    assert result["correct"], record["units"]
    assert result["attempted"] >= 2
    assert list(result["metrics"]) == PER_LAYER
    assert len({u["digest"] for u in record["units"]}) == 1


def test_smoke_untraced_run(smoke):
    smoke("paper_smote_enn")
    result, record = run.measure("paper_smote_enn", seed=2, seconds=0.1, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["environment"]["blas_threads"] == "1"


@pytest.mark.parametrize("trace", [False, True])
def test_a_removed_wrap_target_reports_nothing_instead_of_failing(trace, smoke, monkeypatch):
    smoke("paper_smote_enn")
    monkeypatch.delattr(resampling.NeighborIndex, "query")
    result, _ = run.measure("paper_smote_enn", seed=3, seconds=0.1, trace=trace)
    assert result["correct"]
    if trace:
        assert result["metrics"]["resampling.NeighborIndex.query.calls"]["value"] == 0
        assert result["metrics"]["resampling.enn_filter.self_s"]["value"] > 0


def test_failed_check_exits_non_zero(smoke, monkeypatch, capsys):
    smoke("paper_smote_enn")
    monkeypatch.setattr(workloads, "check", lambda *args: ["forced failure"])
    code = run.main(["--workload", "paper_smote_enn", "--seed", "1", "--seconds", "0.1",
                     "--trace", "1"])
    assert code == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] == last["attempted"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
