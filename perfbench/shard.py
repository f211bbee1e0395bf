"""``shard``: Baswana-Sen on the 10^5-node hosts across 2 workers.

The only workload through ShardedNetwork.  The e2 ``er`` host cuts about
half its edges at 2 shards and the e2 ``grid`` host about 0.2%, so a
change to the transport shows in proportion to the cut.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional

from perfbench.common import (
    Op,
    engine_counts,
    pid_peak_mb,
    self_peak_mb,
    timed_op,
)
from perfbench.spans import Tracer

PROTOCOL = "baswana_sen"
HOSTS = ("er", "grid")
SHARDS = 2


class Shard:
    name = "shard"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hosts: Dict[str, Any] = {}
        #: host -> (edges, NetworkStats) of the single-process run.
        self.reference: Dict[str, Any] = {}

    def setup(self) -> None:
        """Build the hosts, then spawn and warm the worker pool."""
        from repro.graphs import zoo
        from repro.obs import runners

        self.hosts = {
            kind: zoo.build_host(kind, "e2", 1000 + self.seed)
            for kind in HOSTS
        }
        warm = zoo.build_host("er", "smoke", 1000 + self.seed)
        runners.run_traced(PROTOCOL, warm, seed=self.seed, shards=SHARDS)

    def teardown(self) -> None:
        from repro.distributed.sharded import shutdown_workers

        shutdown_workers()
        self.hosts = {}

    close = teardown

    def prepare(self, tracer: Optional[Tracer] = None) -> None:
        """Single-process reference runs (once per benchmark run)."""
        from repro.obs import runners

        for kind, graph in self.hosts.items():
            if tracer is not None:
                tracer.tag = f"{PROTOCOL}/{kind}"
            spanner, stats = runners.run_traced(
                PROTOCOL, graph, seed=self.seed
            )
            self.reference[kind] = (frozenset(spanner.edges), stats)

    def batch(self, tracer: Optional[Tracer] = None) -> List[Op]:
        from repro.obs import runners

        return [
            timed_op(
                f"{PROTOCOL}/{kind}",
                lambda g=graph: runners.run_traced(
                    PROTOCOL, g, seed=self.seed, shards=SHARDS
                ),
                tracer,
            )
            for kind, graph in self.hosts.items()
        ]

    def check(self, ops: List[Op]) -> None:
        for op in ops:
            if op.error is not None:
                continue
            spanner, stats = op.output
            edges, ref_stats = self.reference[op.name.split("/")[1]]
            if frozenset(spanner.edges) != edges:
                op.error = "sharded output differs from single-process"
            elif stats != ref_stats:
                op.error = f"sharded counts differ: {stats}"

    def peak_rss_mb(self) -> float:
        """Coordinator plus live shard workers."""
        return self_peak_mb() + sum(
            pid_peak_mb(proc.pid)
            for proc in multiprocessing.active_children()
        )

    def counts(self, ops: List[Op], tracer: Tracer) -> Dict[str, float]:
        """Engine counts, the cut, and speedups over the traced
        single-process reference runs (``Network.run`` time over
        ``ShardedNetwork.run`` time)."""
        from repro.distributed.sharded import boundary_edges

        cut = sum(boundary_edges(g, SHARDS) for g in self.hosts.values())
        edges = sum(g.m for g in self.hosts.values())
        out = {
            **engine_counts(op.output[1] for op in ops),
            "shard.boundary_edges": cut,
            "shard.cut_frac": cut / edges,
            "shard.ref_run_s": tracer.total("engine.run", "ref"),
        }
        for suffix, tag in (("", ""), (".er", f"{PROTOCOL}/er"),
                            (".grid", f"{PROTOCOL}/grid")):
            ref = tracer.total("engine.run", "ref", tag)
            run = tracer.total("shard.run", "batch", tag)
            out["shard.speedup" + suffix] = ref / run if run else 0.0
        return out
