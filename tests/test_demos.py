"""Smoke tests: every narrative demo, and ``python -m spinpulse``, run to completion
from the repo root."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run(str(demo))
    assert result.returncode == 0, result.stderr


def test_python_m_spinpulse_runs_the_sweep():
    result = run("-m", "spinpulse", "sweep", "--config", "demos/configs/sweep.json")
    assert (result.returncode, result.stderr) == (0, "")
    assert len(result.stdout.splitlines()) == 9  # the header and 8 cells
