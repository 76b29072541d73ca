"""The demos that call the library directly, each run as a script.

Demos 02 and 03 only call `run_engine`, which the engine and acceptance
tests cover, and take several seconds each, so they are not run here.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

# each demo with a pattern its headline output line must match
HEADLINES = {
    "01_drift_recovery.py": r"^relative error vs true map: \d\.\d\de-\d\d$",
    "04_trained_extractor_drift.py": r"^ analytic: per-stage \[[\d. ]+\]  final \d\.\d{4}$",
}


@pytest.mark.parametrize("demo", sorted(HEADLINES))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.search(HEADLINES[demo], done.stdout, re.MULTILINE), done.stdout
