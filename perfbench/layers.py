"""Spans around the program's public entry points, grouped by layer.

:func:`install` wraps, from outside, the calls each layer is entered
through; :func:`layer_metrics` turns the tracer's totals for one run id
into the per-layer metrics of ``metrics.PER_LAYER``.  Nothing under
``src/`` is edited: the wrappers live only in the benchmark process and
are removed by ``Tracer.uninstall``.
"""

from __future__ import annotations

import importlib
from typing import Dict, Iterator, Type

from perfbench.metrics import PROTOCOLS
from perfbench.spans import Tracer

#: modules whose NodeProgram subclasses the workloads run.
_PROGRAM_MODULES = (
    "repro.distributed.primitives",
    "repro.distributed.skeleton_protocol",
    "repro.distributed.fibonacci_protocol",
    "repro.distributed.baswana_sen_protocol",
    "repro.distributed.deterministic_protocol",
    "repro.distributed.reliable",
)

_FAULT_QUERIES = (
    "is_crashed", "transitions", "amnesia_recoveries", "decide",
    "reorder_permutation",
)

_OBS_HOOKS = (
    "on_network", "on_round", "on_send", "on_send_fingerprint",
    "on_fault", "on_retransmit", "on_halt",
)


def _subclasses(cls: Type) -> Iterator[Type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def import_programs() -> None:
    """Import the protocol modules (and so their NodeProgram classes)
    that ``run_traced`` would otherwise import on first use."""
    for name in _PROGRAM_MODULES:
        importlib.import_module(name)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import_programs()
    from repro.distributed import faults, reliable, sharded, simulator
    from repro.graphs import zoo
    from repro.obs import replay, runners, trace
    from repro.serving import artifact

    tracer.wrap(zoo, "build_host", "graphs.build", record=True)
    tracer.wrap(artifact, "build_host", "graphs.build", record=True)
    tracer.wrap(artifact, "load_bundle", "serving.load", record=True)
    tracer.wrap(runners, "run_traced", "driver", record=True)
    tracer.wrap(simulator.Network, "__init__", "net_init.network",
                record=True)
    tracer.wrap(reliable.ReliableNetwork, "__init__", "net_init.reliable",
                record=True)
    tracer.wrap(sharded.ShardedNetwork, "__init__", "net_init.sharded",
                record=True)
    tracer.wrap(simulator.Network, "run", "engine.run", record=True)
    tracer.wrap(reliable.ReliableNetwork, "run", "reliable.run",
                record=True)
    tracer.wrap(sharded.ShardedNetwork, "run", "shard.run", record=True)
    tracer.wrap(simulator.Network, "apply_programs", "apply")
    tracer.wrap(reliable.ReliableNetwork, "apply_programs", "apply")
    tracer.wrap(sharded.ShardedNetwork, "apply_programs", "shard.apply")
    programs = [simulator.NodeProgram, *_subclasses(simulator.NodeProgram)]
    for cls in programs:
        name = (
            "reliable.frame" if issubclass(cls, reliable.ReliableProgram)
            else "program"
        )
        for attr in ("setup", "on_round", "on_amnesia_recover"):
            if attr in vars(cls):
                tracer.wrap(cls, attr, name)
    for attr in _FAULT_QUERIES:
        tracer.wrap(faults.FaultPlan, attr, "faults.decide")
    for attr in _OBS_HOOKS:
        tracer.wrap(trace.Obs, attr, "obs.hook")
    tracer.wrap_context(trace.Obs, "phase", "obs.hook")
    tracer.wrap(trace.TraceRecorder, "dumps", "obs.dump", record=True)
    tracer.wrap(replay, "reconstruct_stats", "obs.replay", record=True)


def outermost_net_inits(tracer: Tracer, run: str) -> tuple:
    """``(count, seconds)`` of network constructions not nested in
    another (a ReliableNetwork builds its inner Network)."""
    records = [r for r in tracer.records if r[3] == run]
    names = {r[0]: r[1] for r in records}
    count, seconds = 0, 0.0
    for span_id, name, _, _, start, end, parent in records:
        if name.startswith("net_init.") and not names.get(
            parent, ""
        ).startswith("net_init."):
            count += 1
            seconds += end - start
    return count, seconds


def layer_metrics(tracer: Tracer, run: str) -> Dict[str, float]:
    """Per-layer times and counts of the spans in ``run``."""
    t = tracer
    networks, net_init_s = outermost_net_inits(t, run)
    engine_self = t.self_time("engine.run", run)
    out: Dict[str, float] = {
        "driver.s": t.total("driver", run),
        "driver.self_s": t.self_time("driver", run),
        "driver.networks": networks,
        "driver.net_init_s": net_init_s,
        "driver.apply_s": t.total("apply", run),
        "engine.run_s": t.total("engine.run", run),
        "engine.self_s": engine_self,
        "programs.s": t.total("program", run),
        "programs.calls": t.calls("program", run),
        "reliable.frame_s": t.self_time("reliable.frame", run),
        "reliable.drive_s": t.self_time("reliable.run", run),
        "faults.decide_s": t.total("faults.decide", run),
        "obs.hook_s": t.total("obs.hook", run),
        "obs.dump_s": t.total("obs.dump", run),
        "obs.replay_s": t.total("obs.replay", run),
        "shard.init_s": t.total("net_init.sharded", run),
        "shard.run_s": t.total("shard.run", run),
        "shard.apply_s": t.total("shard.apply", run),
    }
    for p in PROTOCOLS:
        out[f"engine.self_s.{p}"] = t.self_time("engine.run", run, p + "/")
        out[f"programs.s.{p}"] = t.total("program", run, p + "/")
    return out


#: share of the traced wall time the layer self times may leave
#: unaccounted for.
RECONCILE_TOLERANCE = 0.01


def reconcile(tracer: Tracer, run: str, root: str,
              wall_s: float) -> Dict[str, float]:
    """Check that the layer spans in ``run`` account for ``wall_s``.

    ``wall_s`` is the traced batch's wall time, measured by the caller
    outside the tracer.  The self times of every span in ``run`` except
    the ``root`` span that encloses the batch are summed; what they
    leave of ``wall_s`` is ``trace.unattributed_s`` -- time spent in no
    layer, such as a slow call no wrapper covers -- and its share of
    ``wall_s`` is ``trace.reconcile_err``.
    """
    layer_sum = sum(
        seconds for name, seconds in tracer.self_by_name(run).items()
        if name != root
    )
    unattributed = wall_s - layer_sum
    return {
        "trace.wall_s": wall_s,
        "trace.unattributed_s": unattributed,
        "trace.reconcile_err": abs(unattributed) / wall_s,
    }


def reconciles(metrics: Dict[str, float]) -> bool:
    """Whether the traced run's layers account for its wall time."""
    return metrics["trace.reconcile_err"] <= RECONCILE_TOLERANCE
