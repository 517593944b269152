"""Sensitivity of the difficulty-scaled optimizer to its two knobs.

Sweeps the EMA decay (beta) and the gradient/loss mix weight (alpha) over a
reduced grid on the desk benchmark, two seeds per cell, and prints the cell
table plus the overall accuracy spread. The full published-style grid is
beta in {0.8, 0.9, 0.95, 0.99} x alpha in {0.3, 0.5, 0.7}; swap it in below
if you have a few minutes.
"""

from dbsadam import load_config, sensitivity_sweep

config = load_config("configs/benchmark.cfg", {
    "output_dir": "out/sweep_demo",
    "beta_grid": "0.9, 0.95",
    "alpha_grid": "0.3, 0.5",
    "sweep_seeds": "2",  # the first two configured seeds: 42 and 123
})

print(f"sweeping beta in {config.beta_grid} x alpha in {config.alpha_grid}, "
      f"{config.sweep_seeds} seeds per cell...\n")
report = sensitivity_sweep(config)

print(f"{'beta':>6} {'alpha':>6} {'accuracy':>10} {'precision':>10} {'recall':>10}")
for cell in report.sweep:
    acc = cell["metrics"]["accuracy"][0]
    prec = cell["metrics"]["precision"][0]
    rec = cell["metrics"]["recall"][0]
    print(f"{cell['beta']:>6.2f} {cell['alpha']:>6.2f} {acc:>10.4f} {prec:>10.4f} {rec:>10.4f}")

accuracies = [cell["metrics"]["accuracy"][0] for cell in report.sweep]
spread = 100.0 * (max(accuracies) - min(accuracies))
print(f"\naccuracy spread across cells: {spread:.2f} percentage points")
print("small spreads mean the difficulty mechanism is robust to its knobs")
