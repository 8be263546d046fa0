"""The CI workflow parses and only names paths that exist.

A workflow that is not valid YAML never runs, and a step naming a moved
or deleted test file fails only once CI reaches it.  This test loads
``.github/workflows/ci.yml`` and checks every ``tests/``,
``benchmarks/``, ``scripts/`` and ``perfbench/`` path that a ``run:``
step names.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
CHECKED = ("tests", "benchmarks", "scripts", "perfbench")


def run_commands(workflow):
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step["run"]


def named_paths(command):
    for token in command.split():
        if token.split("/", 1)[0] in CHECKED:
            yield token.split("::", 1)[0]


def test_workflow_is_valid_yaml_with_run_steps():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert list(run_commands(workflow))


def test_every_path_named_in_a_run_step_exists():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    named = {
        path for command in run_commands(workflow) for path in named_paths(command)
    }
    assert "tests/exec/test_differential.py" in named  # the scan finds paths
    missing = sorted(path for path in named if not (ROOT / path).exists())
    assert not missing, f"ci.yml names paths that do not exist: {missing}"
