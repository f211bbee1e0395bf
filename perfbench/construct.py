"""``construct``: clean single-process constructions on the e1 hosts.

Four protocols (the paper's skeleton and Fibonacci spanners, the
Baswana-Sen comparison point and the deterministic skeleton) on the
three e1 zoo hosts, with no tracing, faults or shards: the everyday use
of simulating a construction and reading its rounds, messages and size.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import (
    Op,
    engine_counts,
    self_peak_mb,
    stats_signature,
    timed_op,
)
from perfbench.metrics import PHASE_FAMILIES, PROTOCOLS
from perfbench.spans import Tracer

HOSTS = ("er", "grid", "hypercube")

#: The hosts are the same for every ``--seed``, which seeds only the
#: protocols' coin flips.  The deterministic protocol, most of the
#: batch's time, follows the ``er`` host's graph: over ten host seeds
#: its traffic there ranged from 178k to 250k messages, which would
#: swamp the layers this workload measures.
HOST_SEED = 1001

#: (rounds, messages, words, spanner edges) at ``--seed 1``: the e1/s1
#: rows of the committed simulator bench.
PINNED: Dict[str, Tuple[int, int, int, int]] = {
    "skeleton/er": (33, 31669, 77124, 1291),
    "skeleton/grid": (26, 7119, 16131, 966),
    "skeleton/hypercube": (41, 20209, 49752, 1137),
    "fibonacci/er": (47, 35519, 121382, 3661),
    "fibonacci/grid": (47, 9885, 15964, 1151),
    "fibonacci/hypercube": (47, 21174, 56016, 2304),
    "baswana_sen/er": (6, 17830, 17830, 3353),
    "baswana_sen/grid": (6, 3539, 3539, 1143),
    "baswana_sen/hypercube": (6, 9567, 9567, 2090),
    "deterministic/er": (155, 183107, 385472, 784),
    "deterministic/grid": (411, 223129, 448314, 829),
    "deterministic/hypercube": (194, 187488, 381984, 656),
}

#: BFS sources sampled for the stretch check.
STRETCH_SOURCES = 8


def phase_family(name: str) -> str:
    """``sp3.rule12.m1.x`` -> ``sp.rule``; ``ball[1]`` -> ``ball``."""
    stripped = re.sub(r"\[\d+\]|\d+", "", name)
    return ".".join(stripped.split(".")[:2])


class Construct:
    name = "construct"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.hosts: Dict[str, Any] = {}
        self._first: Dict[str, Tuple[tuple, frozenset]] = {}

    def setup(self) -> None:
        from repro.graphs import zoo

        self.hosts = {
            kind: zoo.build_host(kind, "e1", HOST_SEED)
            for kind in HOSTS
        }

    def teardown(self) -> None:
        self.hosts = {}

    def prepare(self, tracer: Optional[Tracer] = None) -> None:
        """No once-per-run reference work: outputs are pinned."""

    def close(self) -> None:
        pass

    def batch(self, tracer: Optional[Tracer] = None) -> List[Op]:
        from repro.obs import runners

        ops = []
        for protocol in PROTOCOLS:
            for kind in HOSTS:
                graph = self.hosts[kind]
                ops.append(timed_op(
                    f"{protocol}/{kind}",
                    lambda p=protocol, g=graph: runners.run_traced(
                        p, g, seed=self.seed
                    ),
                    tracer,
                ))
        return ops

    def check(self, ops: List[Op]) -> None:
        for op in ops:
            if op.error is None:
                op.error = self._check_one(op)

    def _check_one(self, op: Op) -> Optional[str]:
        spanner, stats = op.output
        signature = stats_signature(stats) + (spanner.size,)
        edges = frozenset(spanner.edges)
        if self.seed == 1 and signature != PINNED[op.name]:
            return f"counts {signature} != pinned {PINNED[op.name]}"
        first = self._first.get(op.name)
        if first is not None:
            if first != (signature, edges):
                return f"counts/edges differ across reps: {signature}"
            return None
        self._first[op.name] = (signature, edges)
        return verify_spanner(op.name.split("/")[0], spanner, self.seed)

    def peak_rss_mb(self) -> float:
        return self_peak_mb()

    def counts(self, ops: List[Op], tracer: Tracer) -> Dict[str, float]:
        return engine_counts(op.output[1] for op in ops)

    def profile(self) -> Dict[str, float]:
        """One extra rep under obs.PhaseProfiler (the engine's general
        loop): seconds per phase family, inclusive of nested phases."""
        from repro.obs import Obs, PhaseProfiler, runners

        out = {
            f"phase_s.{p}.{family}": 0.0
            for p in PROTOCOLS
            for family in PHASE_FAMILIES[p]
        }
        for protocol in PROTOCOLS:
            for graph in self.hosts.values():
                profiler = PhaseProfiler()
                obs = Obs(profiler=profiler, protocol=protocol)
                runners.run_traced(protocol, graph, seed=self.seed, obs=obs)
                for phase, timing in profiler.timings.items():
                    key = f"phase_s.{protocol}.{phase_family(phase)}"
                    out[key] = out.get(key, 0.0) + timing.estimated_seconds
        return out


def verify_spanner(protocol: str, spanner: Any, seed: int) -> Optional[str]:
    """Subgraph, connectivity, size budget and sampled stretch budget."""
    from repro.core.theory import (
        protocol_size_budget,
        protocol_stretch_budget,
    )
    from repro.spanner.verification import (
        verify_connectivity,
        verify_spanner_guarantee,
        verify_subgraph,
    )

    host = spanner.host
    if not verify_subgraph(host, spanner.edges):
        return "spanner has an edge not in the host"
    sub = spanner.subgraph()
    if not verify_connectivity(host, sub):
        return "spanner does not preserve connectivity"
    budget = protocol_size_budget(protocol, host.n)
    if spanner.size > budget:
        return f"size {spanner.size} over budget {budget:.1f}"
    alpha, beta = protocol_stretch_budget(protocol, host.n)
    ok, worst = verify_spanner_guarantee(
        host, sub, alpha, beta, num_sources=STRETCH_SOURCES, seed=seed
    )
    if not ok:
        return f"stretch ({alpha}, {beta}) violated at {worst}"
    return None
