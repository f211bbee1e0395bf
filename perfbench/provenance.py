"""Where a report was measured: commit, CPUs, interpreter, speed.

A calibration loop (fixed pure-Python work) is timed in every run, so
reports from machines of different speed are never compared as if they
were alike; ``compare.py`` refuses mismatched provenance unless told
otherwise.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Any, Dict, Optional

#: keys that must agree before two reports may be compared.
MATCH_KEYS = ("cpus", "python", "platform")

#: calibration scores further apart than this share count as a
#: different machine.
CALIBRATION_TOLERANCE = 0.10


def git_sha(root: str) -> Optional[str]:
    """The checked-out commit, read from ``root/.git`` (None if absent).

    Reads files instead of running git, which would search parent
    directories when ``root`` is not a repository.
    """
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git_dir, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git_dir, "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def calibration_s(rounds: int = 3) -> float:
    """Best-of-``rounds`` seconds for a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - start)
    return best


def provenance(root: str) -> Dict[str, Any]:
    return {
        "git_sha": git_sha(root),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "calibration_s": calibration_s(),
    }


def mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Provenance fields on which two reports disagree."""
    out = {
        key: (a.get(key), b.get(key))
        for key in MATCH_KEYS
        if a.get(key) != b.get(key)
    }
    ca, cb = a.get("calibration_s"), b.get("calibration_s")
    if not ca or not cb or abs(cb / ca - 1) > CALIBRATION_TOLERANCE:
        out["calibration_s"] = (ca, cb)
    return out
