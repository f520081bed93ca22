"""Every script in demos/ runs to completion against the current API."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_demo_exits_0():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"
        assert proc.stdout, demo.name
