"""The serving examples run end to end: each exits 0 and leaves no
shared-memory segment behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SHM = Path("/dev/shm")


def _segments() -> set:
    return set(SHM.glob("ferex*")) if SHM.is_dir() else set()


@pytest.mark.parametrize(
    "script", ["http_serving.py", "procpool_serving.py", "serve_traffic.py"]
)
def test_example_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    before = _segments()
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert _segments() - before == set()
