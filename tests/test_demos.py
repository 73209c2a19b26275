import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_demo_runs(tmp_path):
    demos = sorted((ROOT / "demos").glob("0*.py"))
    assert len(demos) == 4
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for demo in demos:
        done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, f"{demo.name}: {done.stderr}"
        assert done.stdout.strip(), f"{demo.name} printed nothing"
