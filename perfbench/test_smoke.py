"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload traced and untraced with ``--smoke`` and checks the
result contract: the last line holds exactly the metrics BENCHMARK.json
names, with their units, and the report names every end-to-end metric
of the workload with a unit and a sample count. The traced run must
also write its spans out, and the run must fail without the package.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPORTED = {
    "ovr_train": [
        "train_lda_s.p50", "train_csda_s.p50", "train_mda_s.p50", "train_mcsda_s.p50",
        "train_models_per_s",
    ],
    "eval_ovr": ["eval_mcsda_s.p50", "eval_csda_s.p50", "eval_scores_per_s", "heldout_map"],
}
COMMON = ["setup_s", "fail_ratio", "peak_rss_mb"]


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--smoke"]
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    spec = SPEC["end_to_end" if trace == "0" else "per_layer"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())

    rows = {
        line.split()[0]: line.split()
        for line in lines[:-1]
        if line and not line.startswith(("#", "env ", "failed ", "per_kind ", "bypass "))
    }
    probe = ["host_probe_s.p50"] if trace == "0" else []
    for name in COMMON + REPORTED[workload] + probe:
        assert name in rows, name
        assert rows[name][-1].startswith("n="), rows[name]
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for key in ("numpy", "scipy", "numpy_build", "thread_env", "native_threads", "nproc"):
        assert key in env
    if trace == "1":
        bypass = json.loads(next(line for line in lines if line.startswith("bypass "))[7:])
        assert all(bypass.values()), bypass
        if workload == "ovr_train":
            diag = {k: m["value"] for k, m in result["metrics"].items() if k.startswith("diag.")}
            assert len(diag) == 4 and all(v > 0 for v in diag.values()), diag
        check_spans(HERE / "spans" / f"{workload}.npz", result["attempted"])


def check_spans(path, attempted):
    """Every span closed after it opened, inside its parent, within an op."""
    with np.load(path) as spans:
        start, end, parent, op = (spans[k] for k in ("start", "end", "parent", "op"))
        names = spans["names"][spans["name_id"]]
    assert start.size > 0 and start.size == end.size == parent.size == op.size
    assert np.all(end >= start)
    assert np.all(parent < np.arange(start.size))
    inner = parent >= 0
    assert np.all(start[inner] >= start[parent[inner]])
    assert np.all(end[inner] <= end[parent[inner]])
    assert all(str(name).startswith("perfbench.op.") for name in names[~inner])
    assert np.all((op >= 0) & (op < attempted))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "work"))
    proc = run(
        ["--workload", "ovr_train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
