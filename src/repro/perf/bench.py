"""Measuring one workload cell.

:func:`run_cell` builds the cell's host graph, runs the protocol on the
clean fast path (``obs=None``, no fault plan) ``reps`` times, and keeps
the *best* wall time — the standard noise-rejection choice for
microbenchmarks: the minimum over repetitions estimates the true cost,
while means absorb scheduler jitter.

Counts (rounds / messages / words) are recorded alongside the timing
and must be identical across reps and across engines: a baseline
comparison treats any count drift as a correctness failure, not a
performance regression (see :mod:`repro.perf.compare`).
"""

from __future__ import annotations

import resource
import sys
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.runners import run_traced
from repro.perf.workloads import (
    ChurnCell,
    ServiceCell,
    ShardedCell,
    WorkloadCell,
)

__all__ = [
    "CellResult",
    "run_cell",
    "run_churn_cell",
    "run_service_cell",
    "run_sharded_cell",
]

#: one measured cell, as serialized into ``BENCH_*.json``.
CellResult = Dict[str, Any]

#: the three drift-gated counts of one rep (rounds, messages, words).
Counts = Tuple[int, int, int]


def _peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize
    to KiB so reports are comparable.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak // 1024
    return peak


def _best_of_reps(
    head: CellResult,
    reps: int,
    rep: Callable[[], Tuple[float, Counts, CellResult]],
) -> CellResult:
    """Run ``rep`` ``reps`` times and build the cell's report row.

    ``rep()`` returns ``(wall_s, counts, extras)``.  Counts must agree
    across reps (drift is a correctness failure, not noise); the row
    is ``head`` plus the counts, the best wall time and the best rep's
    ``extras``.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    best_wall = float("inf")
    counts: Optional[Counts] = None
    extras: CellResult = {}
    for _ in range(reps):
        wall, rep_counts, rep_extras = rep()
        if counts is None:
            counts = rep_counts
        elif counts != rep_counts:
            raise AssertionError(
                f"nondeterministic cell {head['cell_id']}: "
                f"{counts} != {rep_counts}"
            )
        if wall < best_wall:
            best_wall, extras = wall, rep_extras
    assert counts is not None
    rounds, messages, words = counts
    return {
        **head,
        "rounds": rounds,
        "messages": messages,
        "words": words,
        "wall_s": round(best_wall, 6),
        "rounds_per_s": round(rounds / best_wall, 1) if best_wall > 0 else 0.0,
        "messages_per_s": (
            round(messages / best_wall, 1) if best_wall > 0 else 0.0
        ),
        "peak_rss_kb": _peak_rss_kb(),
        **extras,
    }


def _timed_run(
    protocol: str, graph: Any, seed: Any, **kwargs: Any
) -> Tuple[float, Counts, CellResult]:
    """One clean ``run_traced`` rep: wall time and simulator counts."""
    start = perf_counter()
    _, stats = run_traced(protocol, graph, seed=seed, obs=None, **kwargs)
    wall = perf_counter() - start
    return wall, (stats.rounds, stats.messages, stats.total_words), {}


def run_cell(cell: WorkloadCell, reps: int = 2) -> CellResult:
    """Benchmark ``cell``: best-of-``reps`` wall time plus counts.

    The graph is built once (outside the timed region — generator cost
    is not simulator cost) and every rep runs the identical
    deterministic computation, so counts are asserted equal across
    reps.
    """
    graph = cell.build_graph()
    head = {
        "cell_id": cell.cell_id,
        "protocol": cell.protocol,
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "n": graph.n,
        "m": graph.m,
    }
    return _best_of_reps(
        head, reps, lambda: _timed_run(cell.protocol, graph, cell.seed)
    )


def run_sharded_cell(cell: ShardedCell, reps: int = 2) -> CellResult:
    """Benchmark one sharded-engine cell: best-of-``reps`` plus counts.

    Mirrors :func:`run_cell` with the run dispatched to the sharded
    engine at the cell's shard count.  The worker pool is persistent,
    so the first rep absorbs the spawn cost and the best-of-reps wall
    measures steady-state round throughput; counts are engine-invariant
    (pinned by ``tests/test_sharded_equivalence.py``), so drift against
    a single-process baseline row is a correctness failure here too.

    Must run in a process that may spawn children — the one-cell-per-
    process bench pool's workers are daemonic, so the CLI forces
    ``jobs=1`` for sharded matrices.
    """
    graph = cell.build_graph()
    head = {
        "cell_id": cell.cell_id,
        "protocol": cell.protocol,
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "shards": cell.shards,
        "n": graph.n,
        "m": graph.m,
    }
    return _best_of_reps(
        head,
        reps,
        lambda: _timed_run(
            cell.protocol, graph, cell.seed, shards=cell.shards
        ),
    )


def run_service_cell(cell: ServiceCell, reps: int = 2) -> CellResult:
    """Benchmark one serving cell: end-to-end query latency + counts.

    The artifact bundle is built once (outside the timed region — the
    batch side is not serving cost); each rep starts a *fresh*
    in-process server with fresh caches and drives the cell's seeded
    query stream through real localhost sockets on a single pipelined
    connection, so arrival order — and therefore every LRU/landmark
    hit — replays identically.  Counts are mapped onto the common
    report schema as ``rounds`` = requests issued, ``messages`` =
    responses received, ``words`` = cache hits (LRU + landmark) and
    asserted identical across reps; the baseline gate treats any
    drift as a correctness failure, same as simulator counts.  The
    best-latency rep also contributes service-specific extras
    (``qps``, ``p50_ms``, ``p99_ms``, ``hit_rate``) that ride along
    in the report but are not count-gated.
    """
    from repro.serving.artifact import build_bundle
    from repro.serving.loadgen import run_service_benchmark

    bundle = build_bundle(cell.graph_kind, cell.scale, cell.seed, k=cell.k)

    def rep() -> Tuple[float, Counts, CellResult]:
        summary = run_service_benchmark(
            bundle,
            requests=cell.requests,
            mix=cell.mix,
            seed=cell.seed,
        )
        counts = (summary.requests, summary.answered, summary.cache_hits)
        extras = {
            "qps": summary.qps,
            "p50_ms": summary.p50_ms,
            "p99_ms": summary.p99_ms,
            "hit_rate": summary.hit_rate,
        }
        return summary.wall_s, counts, extras

    head = {
        "cell_id": cell.cell_id,
        "protocol": "service",
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "mix": cell.mix,
        "n": bundle.graph.n,
        "m": bundle.graph.m,
    }
    return _best_of_reps(head, reps, rep)


def run_churn_cell(cell: ChurnCell, reps: int = 2) -> CellResult:
    """Benchmark one churn cell: full engine run, repair-work counts.

    The stream is drawn once (outside the timed region, like the host
    graph) and every rep replays the identical scenario.  Counts are
    the summed per-batch repair work — rounds spent repairing, host
    adjacency entries examined, girth-rule offers — asserted identical
    across reps exactly like the simulator counts.  Grading samples a
    fixed small source set and the distributed amnesia handshake is
    skipped: the bench measures the repair engine, not the verifier or
    the reliable-layer flood (which the churn CI smoke exercises at
    small scale).
    """
    from repro.churn.engine import run_churn
    from repro.churn.events import churn_stream
    from repro.churn.policy import RepairPolicy

    graph = cell.build_graph()
    batches, batch_size = cell.stream_params
    stream = churn_stream(
        graph,
        batches=batches,
        batch_size=batch_size,
        seed=cell.seed,
        crash_fraction=0.15,
        amnesia_fraction=0.5,
    )

    def rep() -> Tuple[float, Counts, CellResult]:
        start = perf_counter()
        result = run_churn(
            graph,
            cell.k,
            stream,
            policy=RepairPolicy(),
            handshakes=False,
            grade_num_sources=4,
        )
        wall = perf_counter() - start
        counts = (
            sum(b.work.get("repair_rounds", 0) for b in result.batches),
            sum(b.work.get("edges_examined", 0) for b in result.batches),
            sum(b.work.get("offers", 0) for b in result.batches),
        )
        return wall, counts, {}

    head = {
        "cell_id": cell.cell_id,
        "protocol": "churn",
        "graph_kind": cell.graph_kind,
        "scale": cell.scale,
        "seed": cell.seed,
        "n": graph.n,
        "m": graph.m,
    }
    return _best_of_reps(head, reps, rep)
