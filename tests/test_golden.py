"""Seeded results stay bit-equal to the digests in tests/golden.json.

A failure names the entries that moved. If the move is intended, rewrite the
file with `PYTHONPATH=src python tests/golden.py` and say which entries moved
and why.
"""

import json

import pytest

import golden


def test_results_match_golden_digests():
    with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    env = golden.environment()
    differs = {k: (stored["environment"].get(k), v) for k, v in env.items()
               if stored["environment"].get(k) != v}
    if differs:
        pytest.skip("golden digests were made in another environment "
                    + ", ".join(f"{k}: stored {a!r}, here {b!r}" for k, (a, b) in differs.items()))
    actual = golden.digests()
    moved = sorted(k for k in stored["digests"].keys() | actual.keys()
                   if stored["digests"].get(k) != actual.get(k))
    assert not moved, f"results moved from tests/golden.json: {moved}"
