"""The walk-profiling recipe still runs: every function it clocks exists."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "profile_walk.py")


def test_profile_walk_prints_its_three_sections():
    options = ["--scale", "tiny", "--queries", "8", "--rounds", "1"]
    done = subprocess.run(
        [sys.executable, os.path.abspath(TOOL), *options],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    out = done.stdout
    assert "median ms per query" in out and "  b32 " in out
    assert "interpreter-level calls per batch-of-1 estimate:" in out
    # A wrapped name that no longer exists raises; one that is never called
    # (a phase the walk stopped going through) reads 0.0 %.
    for phase in ("probs: fold", "probs: blocks", "draw", "regroup", "indicator run"):
        rows = [line for line in out.splitlines() if line.strip().startswith(phase)]
        assert len(rows) == 2 and all(" 0.0%" not in row for row in rows), rows
