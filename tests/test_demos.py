"""Smoke-run the narrative demo scripts."""

import os
import subprocess
import sys

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


@pytest.mark.parametrize("script", [
    "affine_registration.py",
    "tps_partial_shapes.py",
    "smoothing_tradeoff.py",
])
def test_demo_runs_clean(script, tmp_path):
    # the demos run from tmp_path, where a relative PYTHONPATH no longer resolves; in development mode
    # with every warning an error, so that a warning fails the demo
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", os.path.abspath(os.path.join(DEMO_DIR, script))],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
