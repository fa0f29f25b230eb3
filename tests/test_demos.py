"""Every script in demos/ runs to completion and prints something."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# arguments that keep each demo to about a second; the rest take none
ARGS = {"gap_sweep.py": ["8"], "mc_vs_contours.py": ["200", "1"]}
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def test_demo_arguments_name_existing_demos():
    # a renamed demo would otherwise run with its slow defaults
    assert DEMOS and set(ARGS) <= set(DEMOS)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    src = str(ROOT / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name), *ARGS.get(name, [])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
