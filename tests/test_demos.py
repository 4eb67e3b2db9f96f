"""Each narrative demo runs to completion.

A demo writes under its own ``demos/out``, so each runs in a subprocess from
a copy of ``demos/`` under ``tmp_path`` and leaves the repository as it was.
The list is explicit: a demo joins it when it is written to run here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_data_and_partition.py",
    "02_error_formulas.py",
    "03_training_comparison.py",
    "04_verification_suite.py",
    "05_cli_pipeline.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(tmp_path, demo):
    shutil.copytree(ROOT / "demos", tmp_path / "demos", ignore=shutil.ignore_patterns("out"))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the CLI demo's configs name their output directory relative to the repository root
    run = subprocess.run([sys.executable, str(tmp_path / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
