"""Run the demo scripts end to end; each exercises the public API."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_synthetic_graphs.py", "02_kernel_zoo.py",
                                  "03_samplewise_certification.py", "04_collective_karate.py",
                                  "05_export_milp.py"])
def test_demo_runs(tmp_path, demo):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
