"""Golden sha256 digests of seeded results, and the command that rewrites them.

    PYTHONPATH=src python tests/golden.py

recomputes every digest in this tree and rewrites tests/golden.json.
test_golden.py recomputes them and compares. A change that moves result
bits on purpose rewrites the file and names the entries that moved.

The digests cover train() on a reduced desk config (every RunResult field
but wall_clock), the smote_enn and adasyn resampled arrays, and the three
files of a 2 x 2 compare and of a one-seed 2 x 1 sweep, with the timing
fields zeroed. The CSV path has its own entries: each protocol config
(configs/experiment1-4.cfg) run on a generated 600-row CSV in the Addis
schema for 2 epochs, with the prepare_training arrays and one train() run
digested. Float results are only reproducible on the same Python,
NumPy, BLAS and SIMD set, so the file also stores that fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from addis_csv import write_addis_like_csv
from dbsadam.data import FeatureSchema
from dbsadam.harness import (
    compare_optimizers,
    emit_report,
    load_config,
    prepare_training,
    sensitivity_sweep,
    train,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "tests", "golden.json")

# configs/benchmark.cfg (dbs_adam, focal loss, smote_enn, sequence_chunks 2)
# cut to 400 rows and 2 epochs
_REDUCED = {"synthetic_samples": "400", "max_epochs": "2", "patience": "2"}
_SEED = 42

# one train() run per optimizer, loss and resampler, and one at T = 1 and 3
TRAIN_CASES = {
    **{f"optimizer={name}": {"optimizer": name}
       for name in ("adam", "amsgrad", "adamw", "adabound", "dbs_adam")},
    **{f"loss={name}": {"loss": name}
       for name in ("cross_entropy", "weighted_cross_entropy", "focal")},
    **{f"resampler={name}": {"resampler": name} for name in ("none", "smote_enn", "adasyn")},
    **{f"sequence_chunks={t}": {"sequence_chunks": str(t)} for t in (1, 3)},
}

PROTOCOLS = ("experiment1", "experiment2", "experiment3", "experiment4")


def environment() -> dict[str, str]:
    """What float results depend on besides the code: Python, NumPy, the
    BLAS NumPy links and the SIMD extensions it dispatches to."""
    try:
        build = np.show_config(mode="dicts")
        blas = build["Build Dependencies"]["blas"]
        simd = build["SIMD Extensions"]
        blas_id = f"{blas['name']} {blas['version']}"
        simd_id = " ".join([*simd["baseline"], *simd["found"]])
    except (TypeError, KeyError):  # NumPy without show_config(mode="dicts")
        blas_id = simd_id = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_id, "simd": simd_id}


def _config(**overrides):
    return load_config(os.path.join(ROOT, "configs", "benchmark.cfg"), {**_REDUCED, **overrides})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _run_digest(run) -> str:
    fields = dataclasses.asdict(run)
    del fields["wall_clock"]
    # json writes floats as their shortest round-trip repr: one digest per bit pattern
    return _sha(json.dumps(fields, sort_keys=True).encode())


def _report_digests(name: str, report) -> dict[str, str]:
    """Digests of the files emit_report writes, with the timing fields zeroed."""
    for run in report.runs:
        run.wall_clock = 0.0
    with tempfile.TemporaryDirectory() as out:
        paths = emit_report(report, out)
        digests = {}
        for path in paths:
            with open(path, "rb") as fh:
                digests[f"{name}/{os.path.basename(path)}"] = _sha(fh.read())
    return digests


def _protocol_digests() -> dict[str, str]:
    """The protocol configs on a generated Addis-schema CSV, cut to 2 epochs."""
    schema_file = os.path.join(ROOT, "configs", "addis_schema.txt")
    schema = FeatureSchema.from_file(schema_file)
    out = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # test rows hold a few categories the fit rows lack; the encoder says so
        warnings.filterwarnings("ignore", "column .* unseen at fit time", UserWarning)
        dataset = write_addis_like_csv(Path(tmp) / "addis.csv", schema, 600, vocab=4, seed=1,
                                       nul_label=False)
        for name in PROTOCOLS:
            config = load_config(os.path.join(ROOT, "configs", f"{name}.cfg"), {
                "dataset": dataset, "schema_file": schema_file, "max_epochs": "2", "patience": "2"})
            sets = prepare_training(config, _SEED)
            out[f"csv/{name}/prepare_training"] = _array_digest(
                *(a for ds in sets for a in (ds.features, ds.labels)))
            out[f"csv/{name}/train"] = _run_digest(train(config, _SEED))
    return out


def digests() -> dict[str, str]:
    """Every golden entry, recomputed in this tree."""
    out = {f"train/{name}": _run_digest(train(_config(**case), _SEED))
           for name, case in TRAIN_CASES.items()}
    for resampler in ("smote_enn", "adasyn"):
        _, resampled, _, _ = prepare_training(_config(resampler=resampler), _SEED)
        out[f"resampled/{resampler}"] = _array_digest(resampled.features, resampled.labels)
    out.update(_report_digests(
        "compare", compare_optimizers(_config(optimizers="adam, dbs_adam", seeds="42, 123"))))
    out.update(_report_digests(
        "sweep", sensitivity_sweep(_config(beta_grid="0.9, 0.95", alpha_grid="0.5", sweep_seeds="1"))))
    out.update(_protocol_digests())
    return out


def main() -> int:
    payload = {"environment": environment(), "digests": digests()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(payload['digests'])} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
