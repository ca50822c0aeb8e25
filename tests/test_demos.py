"""Every script under ``demos/`` runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name
)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
