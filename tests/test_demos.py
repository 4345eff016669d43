"""Smoke tests in a fresh interpreter from the repo root: every narrative demo and
every ``python -m spinpulse`` subcommand run to completion, and a bare
``import spinpulse`` leaves the command line unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(*args):
    """A fresh interpreter with the tier-1 suite's warning filter: any warning fails it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    result = run(str(demo))
    assert result.returncode == 0, result.stderr


#: each subcommand's arguments on the demo configs
COMMANDS = {
    "run-cn": ["--config", "demos/configs/cn.json"],
    "run-ensemble": ["--config", "demos/configs/ensemble.json"],
    "run-shor": ["--mode", "bare-delay", "--energies", "demos/configs/shor_energies.json"],
    "design-pulse": ["--config", "demos/configs/design.json"],
    "sweep": ["--config", "demos/configs/sweep.json"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_python_m_spinpulse_runs(command):
    result = run("-m", "spinpulse", command, *COMMANDS[command])
    assert (result.returncode, result.stderr) == (0, "")
    if command == "sweep":
        assert len(result.stdout.splitlines()) == 9  # the header and 8 cells


def test_import_spinpulse_loads_no_command_line():
    script = """
import sys, spinpulse
print(sorted(name for name in ("argparse", "csv", "spinpulse.cli") if name in sys.modules))
print(spinpulse.run_config.__module__, spinpulse.sweep_to_csv.__module__)
print(hasattr(spinpulse, "no_such_name"))
"""
    result = run("-c", script)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == ["[]", "spinpulse.cli spinpulse.cli", "False"]


def test_command_line_names_are_bound_on_first_use():
    # the first use loads the command line and binds the name in the package,
    # so later uses read it as a plain attribute, the command line's own object
    script = """
import sys, spinpulse
print("spinpulse.cli" in sys.modules, "run_config" in vars(spinpulse))
first = spinpulse.run_config
print("run_config" in vars(spinpulse), "sweep_to_csv" in vars(spinpulse))
print(spinpulse.run_config is spinpulse.cli.run_config is first)
print(spinpulse.sweep_to_csv is spinpulse.cli.sweep_to_csv, "sweep_to_csv" in vars(spinpulse))
"""
    result = run("-c", script)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == ["False False", "True False", "True", "True True"]


def test_star_import_binds_every_public_name():
    # __all__ is the public surface: each name once, each one bound, the
    # names the command line provides included
    script = """
import spinpulse
from spinpulse import *
names = spinpulse.__all__
print(len(names) == len(set(names)), [name for name in names if name not in globals()])
"""
    result = run("-c", script)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == ["True []"]
