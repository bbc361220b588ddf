"""Static checks of the CI workflow and of the command lines README
documents: both should keep up with the code and with ROADMAP."""

import re
import shlex
from pathlib import Path

import pytest

from mcsda.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def readme_command_lines():
    """Every `mcsda ...` line of README's sh blocks, `\\` continuations
    joined; lines that use shell variables are left out."""
    text = (ROOT / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.strip()
            if line.startswith("mcsda ") and "$" not in line:
                lines.append(line)
    return lines


def test_readme_command_lines_parse():
    lines = readme_command_lines()
    assert {shlex.split(line)[1] for line in lines} == {"synth", "train", "eval", "bench"}
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def tier1_command():
    text = (ROOT / "ROADMAP.md").read_text()
    return re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`", text, flags=re.M).group(1)


def test_workflow_runs_tier1_at_default_and_one_thread_and_the_smoke_test():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    tier1 = [step for step in steps if step.get("name", "").startswith("Tier-1")]
    assert len(tier1) == 2
    for step in tier1:
        assert step["run"].strip() == tier1_command(), step["name"]
    assert tier1[1].get("env", {}).get("OPENBLAS_NUM_THREADS") == "1"
    assert any("perfbench/test_smoke.py" in step.get("run", "") for step in steps)
    setup = [step for step in steps if step.get("uses", "").startswith("actions/setup-python@")]
    assert len(setup) == 1
    assert setup[0]["with"]["cache"] == "pip"
    assert setup[0]["with"]["cache-dependency-path"] == "pyproject.toml"
    assert (ROOT / setup[0]["with"]["cache-dependency-path"]).is_file()
