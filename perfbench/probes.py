"""Host-side probes: peak memory of the benchmark's processes, and a
fixed numpy kernel whose time tracks how fast the host is right now."""

from __future__ import annotations

import os
import statistics
import time

import numpy as np


def _vm_hwm_kb(pid) -> int:
    """Peak resident set (``VmHWM``) of one process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stream:
                fields = stream.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def peak_rss_mb() -> float:
    """The largest peak RSS among this process and its live children
    (pool workers), in MiB."""
    pids = ["self"] + _children(os.getpid())
    return max(_vm_hwm_kb(pid) for pid in pids) / 1024.0


def reference_seconds() -> float:
    """Median time of a fixed block of float32 matrix products (about
    0.2 s in all, so a momentary stall does not decide it)."""
    matrix = np.random.default_rng(0).standard_normal(
        (192, 192)).astype(np.float32)
    times = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(100):
            matrix @ matrix
        times.append(time.perf_counter() - start)
    return statistics.median(times)
