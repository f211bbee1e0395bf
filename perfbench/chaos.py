"""``chaos``: reliable delivery under faults, fully observed.

Three protocols on the smoke grid host with ``reliable=True`` under one
seeded FaultPlan (drop, duplicate, delay and reorder) and a full Obs
(TraceRecorder + MetricsRegistry), then the JSONL dump and
``reconstruct_stats``.  This drives the engine's general loop, the
reliable framing, the fault plan and the obs hooks, none of which the
clean ``construct`` path touches.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from perfbench.common import Op, engine_counts, self_peak_mb, timed_op
from perfbench.spans import Tracer

PROTOCOLS = ("skeleton", "fibonacci", "baswana_sen")
HOST = ("grid", "smoke")

#: fault rates of the plan (drop + duplicate + delay <= 1).
FAULTS = dict(drop_rate=0.05, duplicate_rate=0.02, delay_rate=0.05,
              reorder_rate=0.1)

#: The protocols' own seed is fixed; ``--seed`` seeds the fault plan.
#: The skeleton's and Fibonacci's coin flips change their physical
#: traffic under the reliable layer by 25% and 2.5x from seed to seed,
#: which would swamp the layers this workload measures; fault seeds move
#: it by about 2%.
PROTOCOL_SEED = 1


class Chaos:
    name = "chaos"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graph: Any = None
        #: protocol -> (edges, NetworkStats) of the clean run.
        self.clean: Dict[str, Any] = {}

    def setup(self) -> None:
        from repro.graphs import zoo
        from repro.obs import runners

        self.graph = zoo.build_host(HOST[0], HOST[1], 1000 + PROTOCOL_SEED)
        self.clean = {}
        for protocol in PROTOCOLS:
            spanner, stats = runners.run_traced(
                protocol, self.graph, seed=PROTOCOL_SEED
            )
            self.clean[protocol] = (frozenset(spanner.edges), stats)

    def teardown(self) -> None:
        self.graph = None

    def prepare(self, tracer: Optional[Tracer] = None) -> None:
        """The clean reference runs are part of set-up."""

    def close(self) -> None:
        pass

    def _one(self, protocol: str) -> Dict[str, Any]:
        from repro.distributed.faults import FaultPlan
        from repro.obs import MetricsRegistry, Obs, TraceRecorder, replay
        from repro.obs import runners

        plan = FaultPlan(seed=self.seed, **FAULTS)
        obs = Obs(recorder=TraceRecorder(), metrics=MetricsRegistry(),
                  protocol=protocol)
        spanner, stats = runners.run_traced(
            protocol, self.graph, seed=PROTOCOL_SEED, obs=obs,
            reliable=True, fault_plan=plan,
        )
        recorder = obs.recorder
        assert recorder is not None
        text = recorder.dumps()
        replayed = replay.reconstruct_stats(recorder.events)
        return {
            "edges": frozenset(spanner.edges),
            "stats": stats,
            "replayed": replayed,
            "events": len(recorder.events),
            "trace_bytes": len(text.encode()),
        }

    def batch(self, tracer: Optional[Tracer] = None) -> List[Op]:
        return [
            timed_op(f"{p}/grid", lambda p=p: self._one(p), tracer)
            for p in PROTOCOLS
        ]

    def check(self, ops: List[Op]) -> None:
        for op in ops:
            if op.error is not None:
                continue
            out = op.output
            clean_edges, _ = self.clean[op.name.split("/")[0]]
            if out["edges"] != clean_edges:
                op.error = "output differs from the clean run"
            elif out["replayed"] != out["stats"]:
                op.error = "reconstruct_stats(trace) != NetworkStats"

    def peak_rss_mb(self) -> float:
        return self_peak_mb()

    def counts(self, ops: List[Op], tracer: Tracer) -> Dict[str, float]:
        """Physical engine, reliable-layer, fault and obs counts."""
        done = [op.output for op in ops]
        total = {key: sum(getattr(o["stats"], key) for o in done)
                 for key in ("messages", "retransmissions", "dropped",
                             "delayed", "duplicated", "reordered")}
        clean_msgs = sum(
            self.clean[op.name.split("/")[0]][1].messages for op in ops
        )
        physical = total["messages"]
        return {
            **engine_counts(o["stats"] for o in done),
            "reliable.physical_msgs": physical,
            "reliable.retransmissions": total["retransmissions"],
            "reliable.useful_ratio": clean_msgs / physical if physical else 0,
            "faults.dropped": total["dropped"],
            "faults.delayed": total["delayed"],
            "faults.duplicated": total["duplicated"],
            "faults.reordered": total["reordered"],
            "obs.events": sum(o["events"] for o in done),
            "obs.trace_bytes": sum(o["trace_bytes"] for o in done),
        }
