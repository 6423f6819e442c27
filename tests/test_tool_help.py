"""Every standalone tool answers ``--help`` and touches nothing.

A tool that parses its arguments by hand can mistake ``--help`` for a
positional argument — ``bench_perf.py`` once ran its whole bench and
wrote the snapshot to a file named ``--help``.  Each tool runs from an
empty directory, so any file it writes shows up there.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent

TOOLS = (
    "bench_perf", "bench_guard", "trace_inspect", "store_inspect",
    "timeline_inspect",
)


@pytest.mark.parametrize("tool", TOOLS)
def test_help_exits_zero_and_writes_nothing(tool, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, str(_ROOT / "tools" / f"{tool}.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
    assert list(tmp_path.iterdir()) == []
