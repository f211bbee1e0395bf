"""Timed and traced runs of the batch workloads (construct, chaos,
shard): set up several times, then repeat the batch for the run's
seconds, check every output, and reduce to the benchmark's metrics."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from perfbench import layers
from perfbench.common import MAX_LISTED, Op
from perfbench.metrics import PER_LAYER
from perfbench.spans import Tracer
from perfbench.stats import median

#: set-ups per run: at least this many, and for at least
#: ``SETUP_MIN_S`` seconds, so that set-ups of a few milliseconds are
#: taken many times; ``setup_s`` is their median.
SETUP_REPS = 3
SETUP_MIN_S = 1.0


def _timed_setups(workload: Any) -> List[float]:
    times: List[float] = []
    begin = time.perf_counter()
    while (len(times) < SETUP_REPS
           or time.perf_counter() - begin < SETUP_MIN_S):
        if times:
            workload.teardown()
        start = time.perf_counter()
        layers.import_programs()  # lazy imports finish before timing
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def _measure(workload: Any, seconds: float) -> Tuple[List[float], List[Op]]:
    """Repeat the batch until ``seconds`` have passed (at least once)."""
    walls: List[float] = []
    ops: List[Op] = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < seconds:
        start = time.perf_counter()
        batch = workload.batch()
        walls.append(time.perf_counter() - start)
        workload.check(batch)
        for op in batch:
            op.output = None  # keep memory flat across reps
        ops += batch
    return walls, ops


def _outcome(ops: List[Op]) -> Dict[str, Any]:
    failures = [f"{op.name}: {op.error}" for op in ops if op.error]
    return {"attempted": len(ops), "failed": len(failures),
            "failures": failures[:MAX_LISTED]}


def timed_run(workload: Any, seconds: float) -> Dict[str, Any]:
    setups = _timed_setups(workload)
    try:
        workload.prepare()
        walls, ops = _measure(workload, seconds)
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
    outcome = _outcome(ops)
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "peak_rss_mb": peak,
        "ok_rate": 1 - outcome["failed"] / outcome["attempted"],
    }
    detail = {"setup_s": setups, "wall_s": walls,
              "op_ms": {op.name: [] for op in ops}}
    for op in ops:
        detail["op_ms"][op.name].append(op.seconds * 1e3)
    return {"metrics": metrics, "outcome": outcome, "detail": detail}


def traced_run(workload: Any, seconds: float,
               spans_path: str = "") -> Dict[str, Any]:
    """Per-layer metrics from one traced batch (plus the untraced
    median it is compared with for the tracing overhead)."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.run = "setup"
        with tracer.span("setup"):
            workload.setup()
        tracer.run = "ref"
        with tracer.span("ref"):
            workload.prepare(tracer)
    finally:
        tracer.uninstall()
    try:
        walls, ops = _measure(workload, seconds)
        layers.install(tracer)
        tracer.run = "batch"
        start = time.perf_counter()
        try:
            with tracer.span("batch"):
                batch = workload.batch(tracer)
        finally:
            wall = time.perf_counter() - start
            tracer.uninstall()
        workload.check(batch)
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        out.update(layers.layer_metrics(tracer, "batch"))
        out.update(layers.reconcile(tracer, "batch", "batch", wall))
        out["graphs.build_s"] = tracer.total("graphs.build", "setup")
        out["trace.overhead_s"] = out["trace.wall_s"] - median(walls)
        out.update(workload.counts(
            [op for op in batch if op.output is not None], tracer
        ))
        if out["engine.messages"]:
            out["engine.ns_per_msg"] = (
                out["engine.self_s"] / out["engine.messages"] * 1e9
            )
        # A share of one run: host speed drift cancels out of it.
        out["engine.self_frac"] = out["engine.self_s"] / out["trace.wall_s"]
        if hasattr(workload, "profile"):
            out.update(workload.profile())
    finally:
        workload.close()
    if spans_path:
        tracer.dump(spans_path)
    outcome = _outcome(ops + batch)
    return {"metrics": out, "outcome": outcome,
            "detail": {"untraced_wall_s": walls,
                       "spans": len(tracer.records)}}
