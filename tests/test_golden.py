"""Seeded results stay bit-equal to the digests in tests/golden.json.

A failure names the entries that moved. If the move is intended, rewrite the
file with `PYTHONPATH=src python tests/golden.py` and say which entries moved
and why.
"""

import json

import pytest

import golden
from dbsadam import harness


def _stored_map(environment: dict[str, str]) -> dict[str, str]:
    """The stored digests made with environment's BLAS thread count; skips
    when there are none or their fingerprint differs in anything else."""
    with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
        maps = json.load(fh)["maps"]
    threads = environment["blas_threads"]
    stored = next((m for m in maps if m["environment"]["blas_threads"] == threads), None)
    if stored is None:
        pytest.skip(f"no golden digests were made with {threads} BLAS threads")
    differs = {k: (stored["environment"].get(k), v) for k, v in environment.items()
               if stored["environment"].get(k) != v}
    if differs:
        pytest.skip("golden digests were made in another environment "
                    + ", ".join(f"{k}: stored {a!r}, here {b!r}" for k, (a, b) in differs.items()))
    return stored["digests"]


def _moved(stored: dict[str, str], actual: dict[str, str]) -> list[str]:
    return sorted(k for k in stored.keys() | actual.keys() if stored.get(k) != actual.get(k))


def test_results_match_golden_digests():
    stored = _stored_map(golden.environment())
    moved = _moved(stored, golden.digests())
    assert not moved, f"results moved from tests/golden.json: {moved}"


def test_results_match_golden_digests_with_blas_pinned_to_one_thread():
    # a fresh process, so BLAS starts with one thread, and on more than one
    # CPU the neighbour search runs on several threads
    made = golden.digest_map({"OPENBLAS_NUM_THREADS": "1"})
    moved = _moved(_stored_map(made["environment"]), made["digests"])
    assert not moved, f"results moved from tests/golden.json with OPENBLAS_NUM_THREADS=1: {moved}"


def test_compare_and_sweep_digests_with_two_workers(monkeypatch):
    # with BLAS unpinned, as here, compare and sweep train in one process;
    # forcing two workers takes them through the process pool
    stored = _stored_map(golden.environment())
    monkeypatch.setattr(harness, "_worker_count", lambda jobs: 2)
    actual = golden.report_digests()
    moved = sorted(k for k, v in actual.items() if stored[k] != v)
    assert not moved, f"results moved from tests/golden.json with two workers: {moved}"
