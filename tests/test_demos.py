"""Smoke runs of the demo scripts: each must exit 0.

Demos 01 to 03 take about a second each. Demos 04 (about 15 s) and 05
(about 23 s) train full multi-seed comparisons and are left out here; the
harness tests and the acceptance suite cover what they run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# each demo's script stem and a line its output must contain
DEMOS = {
    "01_difficulty_scaled_adam": "the two trajectories coincide",
    "02_lstm_gradient_check": "every parameter tensor agrees",
    "03_imbalance_pipeline": "3-NN of rare point 95",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert DEMOS[demo] in result.stdout
