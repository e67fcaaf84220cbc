"""Out-of-process accounting from ``/proc``: CPU time and peak RSS
of the program's processes, read from outside them."""

from __future__ import annotations

import os
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` in seconds (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are 14/15.
    return (int(fields[11]) + int(fields[12])) / _TICK


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def peak_rss_mb(pid: int) -> float:
    """VmHWM of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


def children(pid: int) -> List[int]:
    """Direct child pids of ``pid``."""
    kids: List[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            kids.extend(int(part) for part in handle.read().split())
    return sorted(kids)


def snapshot(pids: List[int]) -> Dict[int, float]:
    """CPU seconds of each pid, taken together."""
    return {pid: cpu_seconds(pid) for pid in pids}
