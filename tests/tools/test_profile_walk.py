"""The walk-profiling recipe still runs: every function it clocks exists,
it pins the benchmark's environment itself, and it reports the working set."""

import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "profile_walk.py")
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED")


@pytest.fixture(scope="module")
def out():
    """One tiny run, started without the pins and with one set wrong."""
    options = ["--scale", "tiny", "--queries", "8", "--rounds", "1"]
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    env["OPENBLAS_NUM_THREADS"] = "2"
    done = subprocess.run(
        [sys.executable, os.path.abspath(TOOL), *options],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_profile_walk_prints_its_three_sections(out):
    assert "median ms per query" in out and "  b32 " in out
    assert "interpreter-level calls per batch-of-1 estimate:" in out
    # A wrapped name that no longer exists raises; one that is never called
    # (a phase the walk stopped going through) reads 0.0 %.
    for phase in ("probs: fold", "probs: blocks", "draw", "regroup", "indicator run"):
        rows = [line for line in out.splitlines() if line.strip().startswith(phase)]
        assert len(rows) == 2 and all(" 0.0%" not in row for row in rows), rows


def test_profile_walk_pins_itself_and_reports_the_working_set(out):
    # It re-executed itself with the benchmark's pins, and says so first.
    assert out.splitlines()[0] == (
        "pinned: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONHASHSEED=0"
    )
    # The working set of one walking thread at b1 and b32: a per-batch peak
    # and the scratch the thread added, split into kernel scratch and fold
    # buffer; the kernel part is three chunk-sized arrays at either size.
    rows = [line.split() for line in out.splitlines() if line.startswith("  b") and "peak" in line]
    assert [row[0] for row in rows] == ["b1", "b32"], out
    for row in rows:
        peak_median, peak_max = float(row[2]), float(row[4])
        scratch, kernel, fold = float(row[7]), float(row[11]), float(row[14])
        assert 0 < peak_median <= peak_max
        assert kernel > 0 and fold > 0 and abs(scratch - kernel - fold) <= 0.011
    assert rows[0][11] == rows[1][11]
