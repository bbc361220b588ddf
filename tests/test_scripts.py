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
    text = report.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2) + "\n"
    assert [p.name for p in report.parent.iterdir()] == [report.name]  # no temporary file
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



def test_synthetic_protocol_refuses_a_split_with_no_held_out_sample(tmp_path):
    # ceil(0.9 * 4) = 4: every sample of each class goes to training
    report = tmp_path / "protocol.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "synthetic_protocol.py"), "--dims", "6x5",
         "--classes", "3", "--per-class", "4", "--repeats", "1", "--fractions", "0.5,0.9",
         "--subspace", "2x2", "--report", str(report)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage error: --fractions 0.9 leaves class 1 no held-out sample\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--methods", "csda,foo"],
         "usage error: --methods: unknown method 'foo', expected some of csda,lda,mcsda,mda"),
        (["--repeats", "0"], "usage error: --repeats must be >= 1, got 0"),
        (["--fractions", "1.5"], "usage error: fraction must lie strictly in (0, 1), got 1.5"),
        (["--classes", "0"], "usage error: n_classes must be >= 1, got 0"),
        (["--lambda", "-1"], "usage error: reg_lambda must be finite and >= 0, got -1.0"),
        (["--seed", "-1"], "usage error: seed must be >= 0, got -1"),
        # csda's 7 of 30 passes; mcsda's 7 for a mode of 6 is refused before csda fits
        (["--methods", "csda,mcsda", "--subspace", "7x1"],
         "usage error: subspace dimension 7 for mode 0 outside 1..6"),
        (["--report", "{tmp}"],
         "synthetic_protocol.py: error: argument --report: '{tmp}' is a directory"),
    ],
    ids=["unknown_method", "no_repeats", "fraction_above_one", "no_classes",
         "negative_lambda", "negative_seed", "subspace_beyond_dims", "report_is_a_directory"],
)
def test_synthetic_protocol_refuses_bad_methods_and_repeats(tmp_path, args, message):
    # refused with one line (argparse's after its usage line) before any
    # model is fitted: no traceback, no table, no report
    report = tmp_path / "protocol.json"
    args = [arg.format(tmp=tmp_path) for arg in args]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "synthetic_protocol.py"), "--dims", "6x5",
         "--classes", "3", "--per-class", "10", "--repeats", "2", "--fractions", "0.5",
         "--subspace", "2x2", "--report", str(report), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines(keepends=True)
    if message.startswith("usage error: "):
        assert lines == [message + "\n"]
    else:
        assert lines[0].startswith("usage: ") and lines[-1] == message.format(tmp=tmp_path) + "\n"
    assert "Traceback" not in proc.stderr
    assert not report.exists()
    assert list(tmp_path.iterdir()) == []
