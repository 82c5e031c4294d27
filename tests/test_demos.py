"""Each demo runs to completion as a script against this checkout's sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the working directory is a fresh folder: the adjacency demo writes its CSV there
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    if demo.stem == "demo_adjacency_shift":
        assert (tmp_path / "adjacency_series.csv").stat().st_size > 0


def test_demos_are_found():
    """An empty glob would leave the parametrized test above with nothing to run."""
    assert {"demo_adjacency_shift", "demo_alignment", "demo_detection"} <= {d.stem for d in DEMOS}
