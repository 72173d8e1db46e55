"""No process outlives a run (stdlib only, Linux).

A run starts processes directly (the wire workloads' server) and through
the library (``pool_neural``'s spawned workers, and with them
``multiprocessing``'s resource tracker, which nobody joins: it ends only
once its parent has exited, and then lingers as a zombie of PID 1).
``adopt_orphans`` makes this process the one that inherits every descendant
whose own parent dies; ``reap_all`` then ends, and waits for, every child it
has, so when ``run.py`` returns nothing it started is left.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Orphaned descendants are re-parented to this process, not to PID 1."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # reap_all still covers the direct children


def children() -> List[int]:
    """PIDs whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                # "pid (comm) state ppid ..."; comm may hold spaces and ")".
                fields = f.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _stop_resource_tracker() -> None:
    """Close the tracker's pipe and wait for it: its normal way out."""
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_pid", None) is not None:
            tracker._stop()
    except Exception:
        pass  # whatever is left is killed below


def reap_all(grace_s: float = 10.0) -> int:
    """Wait until this process has no child left; returns how many had to be
    killed because they were still running after ``grace_s``."""
    _stop_resource_tracker()
    deadline = time.monotonic() + grace_s
    killed = set()
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return len(killed)
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children():
                killed.add(child)
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)
