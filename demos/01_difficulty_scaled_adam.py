"""How the batch-difficulty score drives the learning rate.

Walks through the difficulty statistics on a hand-built stream of (gradient
norm, batch loss) signals, then shows the reduction property: when the
difficulty is pinned to a constant, the scaled optimizer retraces plain Adam
at the equivalent fixed rate.
"""

import numpy as np

from dbsadam import (
    OptimizerConfig,
    OptimizerState,
    SeededRng,
    adam_step,
    dbs_adam_step,
    observe_batch,
)
from dbsadam.optimizers import difficulty

print("== tracker warm-up and response ==")
# the statistics live on the optimizer state, the settings on its config
state = OptimizerState({})
settings = OptimizerConfig(warmup_batches=5)
rng = SeededRng(0)
for step in range(12):
    grad_norm = float(abs(rng.normal(loc=2.0, scale=0.3)))
    batch_loss = float(abs(rng.normal(loc=1.0, scale=0.2)))
    d = observe_batch(state, settings, grad_norm, batch_loss)
    phase = "warm-up" if step < settings.warmup_batches else "live"
    print(f"  batch {step:2d} ({phase:7s}): G={grad_norm:5.2f} L={batch_loss:5.2f} -> D={d:.3f}")

print("\nan average batch scores the exact midpoint:")
print(f"  D(mu_G, mu_L) = {observe_batch(state, settings, state.mu_g, state.mu_l)}")

# probe hypothetical batches against the frozen statistics
print("\nscoring hypothetical batches without updating the statistics:")
high = difficulty(state, settings, state.mu_g * 6, state.mu_l * 6)
print(f"  both signals far above their means -> D = {high:.3f} (d_max)")
print(f"  both signals far below             -> D = {difficulty(state, settings, 0.0, 0.0):.3f} (d_min)")

# ---------------------------------------------------------------------------
print("\n== reduction: pinned difficulty retraces Adam at the scaled rate ==")
rng = SeededRng(1)
target = rng.normal(size=6)
start = rng.normal(size=6)

c = 0.5
p_scaled = {"w": start.copy()}
p_adam = {"w": start.copy()}
s_scaled, s_adam = OptimizerState(p_scaled), OptimizerState(p_adam)
pinned = OptimizerConfig(base_lr=0.001, d_min=c, d_max=c)  # clip forces D = c every batch
config_equiv = OptimizerConfig(base_lr=0.001 * c)

for _ in range(50):
    grads = {"w": p_scaled["w"] - target}
    loss = float(0.5 * np.sum((p_scaled["w"] - target) ** 2))
    dbs_adam_step(p_scaled, grads, s_scaled, pinned, loss)
    adam_step(p_adam, {"w": p_adam["w"] - target}, s_adam, config_equiv)

gap = np.max(np.abs(p_scaled["w"] - p_adam["w"]))
print(f"  max per-coordinate gap after 50 steps: {gap:.2e}")
assert gap < 1e-12
print("  the two trajectories coincide, as the update algebra predicts")
