"""Every narrative demo runs to completion and cleans up after itself.

Each demo runs in its own interpreter against this tree's `src`, with the
temp dir pointed at a fresh directory so that a leftover
`fixedlab_demo_*` directory is seen.
"""
import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_every_demo_is_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(tmp_path, demo):
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert not list(tmp_path.glob("fixedlab_demo_*"))
