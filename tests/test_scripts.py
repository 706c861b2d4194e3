import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("flag", ["--check", "--full"])
def test_simplify_stats_runs(flag):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "simplify_stats.py"), "--circuits", "5", flag],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("circuits: 5 ")
