"""Pieces shared by the batch workloads (construct, chaos, shard)."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional

from perfbench.spans import Tracer

#: failures listed in a report (all are counted).
MAX_LISTED = 100


@dataclass
class Op:
    """One operation of a batch: a construction, timed on its own."""

    name: str
    seconds: float
    output: Any = None
    #: why the operation failed (raised, or failed an output check).
    error: Optional[str] = None


def timed_op(name: str, fn: Callable[[], Any],
             tracer: Optional[Tracer] = None) -> Op:
    """Run ``fn`` as the operation ``name``; an exception fails it."""
    if tracer is not None:
        tracer.tag = name
    start = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation
        return Op(name, time.perf_counter() - start, None,
                  f"{type(exc).__name__}: {exc}")
    return Op(name, time.perf_counter() - start, output)


def self_peak_mb() -> float:
    """This process's peak resident set size, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stats_signature(stats: Any) -> tuple:
    """The exact counts a construction's NetworkStats carries."""
    return (stats.rounds, stats.messages, stats.total_words)


def engine_counts(stats: Iterable[Any]) -> Dict[str, float]:
    """Rounds, messages and words summed over a batch's NetworkStats."""
    rows = [stats_signature(s) for s in stats]
    return {
        "engine.rounds": sum(r[0] for r in rows),
        "engine.messages": sum(r[1] for r in rows),
        "engine.words": sum(r[2] for r in rows),
    }
