"""Smoke runs of the scripts under ``scripts/`` on toy sizes: each runs
in a fresh interpreter against this checkout's package and writes its
JSON report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, report):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--report", str(report)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(report.read_text())
    assert doc["version"] == 1
    return doc["rows"]


def test_synthetic_protocol(tmp_path):
    rows = run_script(
        "synthetic_protocol.py", "--dims", "6x5", "--classes", "3",
        "--per-class", "10", "--repeats", "2", "--fractions", "0.5",
        "--subspace", "2x2", report=tmp_path / "protocol.json",
    )
    assert [(r["method"], r["fraction"]) for r in rows] == [
        ("csda", 0.5), ("mcsda", 0.5), ("lda", 0.5), ("mda", 0.5)
    ]
    for row in rows:
        assert set(row["map"]) == {"mean", "std"}
        assert 0.0 <= row["map"]["mean"] <= 1.0
        assert row["train_seconds"]["mean"] > 0


def test_timing_comparison(tmp_path):
    rows = run_script(
        "timing_comparison.py", "--sizes", "8x6:2x2", "--n", "24",
        "--repeats", "1", report=tmp_path / "timing.json",
    )
    assert len(rows) == 1
    (row,) = rows
    assert row["dims"] == [8, 6] and row["subspace"] == [2, 2]
    assert row["csda_seconds"] > 0 and row["mcsda_seconds"] > 0
    assert row["ratio"] == pytest.approx(row["csda_seconds"] / row["mcsda_seconds"])
    assert row["predicted_ratio"] > 0
