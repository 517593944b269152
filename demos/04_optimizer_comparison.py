"""Multi-seed optimizer comparison on the synthetic desk benchmark.

Reproduces the comparison protocol end to end: identical stratified splits
per seed, per-optimizer aggregation as mean +/- std, and seed-paired t-tests
with effect sizes. Two seeds and three optimizers keep the demo around a
minute; raise `seeds`/`optimizers` below for the full table.
"""

from dbsadam import compare_optimizers, emit_report, load_config

config = load_config("configs/benchmark.cfg", {
    "optimizers": "adam, adabound, dbs_adam",
    "seeds": "42, 123",
    "output_dir": "out/comparison_demo",
})

print(f"comparing {config.optimizers} over seeds {config.seeds}...")
report = compare_optimizers(config)

print("\n== aggregate metrics (mean +/- sample std) ==")
for name, metrics in report.aggregates.items():
    acc_mean, acc_std = metrics["accuracy"]
    loss_mean, _ = metrics["loss"]
    print(f"  {name:9s} accuracy {acc_mean:.4f} +/- {acc_std:.4f}   test loss {loss_mean:.4f}")

print("\n== seed-paired significance (accuracy) ==")
for entry in report.significance:
    if entry["metric"] != "accuracy":
        continue
    r = entry["result"]
    verdict = "significant" if r.significant else "not significant"
    print(
        f"  {entry['optimizer_a']} vs {entry['optimizer_b']}: "
        f"t={r.t_statistic:+.3f} p={r.p_value:.3f} d={r.cohens_d:+.3f} ({verdict})"
    )

print("\n== per-batch learning-rate traces (difficulty-scaled runs only) ==")
for run in report.runs:
    if run.lr_summary is None:
        continue
    lo, mean, hi = run.lr_summary
    print(f"  seed {run.seed}: lr in [{lo:.2e}, {hi:.2e}], mean {mean:.2e}")

paths = emit_report(report, config.output_dir)
print("\nwrote: " + ", ".join(paths))
