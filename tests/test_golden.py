"""Seeded results stay bit-equal to the digests in tests/golden.json.

A failure names the entries that moved. If the move is intended, rewrite the
file with `PYTHONPATH=src python tests/golden.py` and say which entries moved
and why.
"""

import json

import pytest

import golden
from dbsadam import harness


def _stored_digests() -> dict[str, str]:
    with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    env = golden.environment()
    differs = {k: (stored["environment"].get(k), v) for k, v in env.items()
               if stored["environment"].get(k) != v}
    if differs:
        pytest.skip("golden digests were made in another environment "
                    + ", ".join(f"{k}: stored {a!r}, here {b!r}" for k, (a, b) in differs.items()))
    return stored["digests"]


def test_results_match_golden_digests():
    stored = _stored_digests()
    actual = golden.digests()
    moved = sorted(k for k in stored.keys() | actual.keys() if stored.get(k) != actual.get(k))
    assert not moved, f"results moved from tests/golden.json: {moved}"


def test_compare_and_sweep_digests_with_two_workers(monkeypatch):
    # with BLAS unpinned, as here, compare and sweep train in one process;
    # forcing two workers takes them through the process pool
    stored = _stored_digests()
    monkeypatch.setattr(harness, "_worker_count", lambda jobs: 2)
    actual = golden.report_digests()
    moved = sorted(k for k, v in actual.items() if stored[k] != v)
    assert not moved, f"results moved from tests/golden.json with two workers: {moved}"
