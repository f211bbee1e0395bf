"""Chaos harness: the distributed protocols under injected faults.

The acceptance bar for the reliable-delivery layer: under a 10%
message-drop plan every protocol, wrapped unmodified, must produce the
same answer it produces on a perfect network — across graph families and
seeds — with the injected faults and the retransmissions that masked
them visible in :class:`NetworkStats`.  Runs that cannot be masked
(crash-stop processors, hopeless loss rates) must either degrade into
something :func:`classify_outcome`/:func:`repair_connectivity` can
grade and patch, or fail loudly with :class:`ProtocolError`.

Tests named ``test_smoke_*`` form the fast subset CI runs on every push
(``pytest tests/test_chaos.py -k smoke``).
"""

from __future__ import annotations

import pytest

from repro.distributed import (
    CrashSpec,
    FaultPlan,
    ProtocolError,
    ReliableConfig,
    distributed_baswana_sen,
    neighborhood_survey,
)
from repro.distributed.faults import AMNESIA as AMNESIA_KIND
from repro.distributed.faults import CRASH as CRASH_KIND
from repro.distributed.faults import RECOVER as RECOVER_KIND
from repro.graphs import Graph
from repro.graphs.generators import erdos_renyi_gnp, grid_2d, watts_strogatz
from repro.obs import PROTOCOL_SPECS, PROTOCOLS, run_traced
from repro.spanner import (
    INVALID,
    classify_outcome,
    repair_connectivity,
    verify_connectivity,
    verify_subgraph,
)
from tests.conftest import comparable_result

DROP10 = dict(drop_rate=0.10)
MIXED = dict(drop_rate=0.05, duplicate_rate=0.05, delay_rate=0.05,
             max_delay=3, reorder_rate=0.2)

FAMILIES = {
    "gnp": lambda s: erdos_renyi_gnp(26, 0.15, seed=s),
    "grid": lambda s: grid_2d(5, 5),
    "smallworld": lambda s: watts_strogatz(24, 4, 0.2, seed=s),
}


def run_baswana(g, seed, **kw):
    sp = distributed_baswana_sen(g, 2, seed=seed, **kw)
    return set(sp.edges), sp.metadata["network_stats"]


SPANNER_PROTOCOLS = [p for p in PROTOCOLS if PROTOCOL_SPECS[p].spanner]


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reliable_masks_ten_percent_drop(protocol, family, seed):
    """The acceptance sweep: every registry protocol at its defaults x
    3 families x 3 seeds."""
    g = FAMILIES[family](seed)
    plan = FaultPlan(seed=100 + seed, **DROP10)
    result, stats = run_traced(
        protocol, g, seed=seed, reliable=True, fault_plan=plan
    )
    baseline, _ = run_traced(protocol, g, seed=seed)
    # bitwise-identical to the fault-free run
    assert comparable_result(protocol, result) == comparable_result(
        protocol, baseline
    )
    if PROTOCOL_SPECS[protocol].spanner:
        assert verify_subgraph(g, result.edges)
        assert verify_connectivity(g, Graph(g.vertices(), result.edges))
    # The faults really happened and the layer really masked them.
    assert stats.dropped > 0
    assert stats.retransmissions > 0
    assert stats.fault_events


@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_smoke_exact_under_mixed_faults(protocol):
    """Drops + duplicates + delays + reordering together, one family."""
    g = FAMILIES["gnp"](0)
    plan = FaultPlan(seed=7, **MIXED)
    result, stats = run_traced(
        protocol, g, seed=0, reliable=True, fault_plan=plan
    )
    baseline, base_stats = run_traced(protocol, g, seed=0)
    assert comparable_result(protocol, result) == comparable_result(
        protocol, baseline
    )
    assert stats.faults_injected > 0
    # Masking faults costs rounds and traffic, never correctness.
    assert stats.rounds >= base_stats.rounds


def test_smoke_survey_knowledge_is_exact_per_vertex():
    g = FAMILIES["smallworld"](1)
    base, _ = neighborhood_survey(g, 2)
    known, stats = neighborhood_survey(
        g, 2, reliable=True, fault_plan=FaultPlan(seed=3, **DROP10)
    )
    assert known == base
    assert stats.dropped > 0 and stats.retransmissions > 0


@pytest.mark.parametrize("protocol", SPANNER_PROTOCOLS)
def test_crash_schedule_degrades_gracefully(protocol):
    """Crash-stop nodes: the outcome grades as valid after local repair."""
    g = FAMILIES["gnp"](0)
    plan = FaultPlan(
        seed=5,
        drop_rate=0.05,
        crashes=[CrashSpec(3, crash_round=4), CrashSpec(11, crash_round=9)],
    )
    result, stats = run_traced(
        protocol, g, seed=0, reliable=True, fault_plan=plan
    )
    edges = set(result.edges)
    baseline, _ = run_traced(protocol, g, seed=0)
    report = classify_outcome(g, edges, baseline_size=len(baseline.edges))
    if report.status == INVALID:
        assert not report.reasons or report.connectivity_ok is False
        repaired, added = repair_connectivity(
            g, edges, crashed=plan.crashed_nodes()
        )
        assert added  # the repair actually did something
        report = classify_outcome(
            g, repaired, baseline_size=len(baseline.edges)
        )
    assert report.ok
    assert stats.fault_events  # crash transitions are on the record


@pytest.mark.parametrize("amnesia", [False, True],
                         ids=["fail-pause", "amnesia"])
def test_smoke_crash_recover_grades_and_replays(amnesia):
    """A node recovering mid-run: graded bucket + deterministic edges.

    The reliable layer masks the outage (neighbors' retransmissions
    carry the node back into lockstep), so the recovered run must grade
    valid / valid-but-denser — never invalid — and two identical runs
    must produce the identical repaired edge set.  The protocol nodes
    inherit ``NodeProgram``'s no-op amnesia hook, so the amnesia variant
    exercises the schedule path (wipe signal fired, recovery re-joined);
    real state loss is covered by the churn handshake tests.
    """
    g = FAMILIES["gnp"](0)
    plan = FaultPlan(
        seed=7,
        crashes=[CrashSpec(5, crash_round=3, recover_round=6,
                           amnesia=amnesia)],
    )
    edges, stats = run_baswana(g, 0, reliable=True, fault_plan=plan)
    again, _ = run_baswana(g, 0, reliable=True, fault_plan=plan)
    assert edges == again  # repaired-edge determinism
    baseline, _ = run_baswana(g, 0)
    report = classify_outcome(g, edges, baseline_size=len(baseline))
    assert report.status != INVALID and report.ok
    kinds = [e.kind for e in stats.fault_events]
    assert CRASH_KIND in kinds
    assert (AMNESIA_KIND if amnesia else RECOVER_KIND) in kinds


def test_smoke_crash_repair_restores_connectivity():
    g = FAMILIES["grid"](0)
    plan = FaultPlan(seed=2, crashes=[CrashSpec(12, crash_round=1)])
    edges, _ = run_baswana(g, 0, reliable=True, fault_plan=plan)
    repaired, _ = repair_connectivity(g, edges, crashed=plan.crashed_nodes())
    assert verify_subgraph(g, repaired)
    assert verify_connectivity(g, Graph(g.vertices(), repaired))


def test_smoke_hopeless_loss_fails_loudly():
    """A loss rate the layer cannot mask must raise, not limp on."""
    g = FAMILIES["gnp"](0)
    with pytest.raises(ProtocolError):
        run_baswana(
            g, 0,
            reliable=True,
            fault_plan=FaultPlan(seed=1, drop_rate=1.0),
            reliable_config=ReliableConfig(max_tries=3),
        )


def test_smoke_stall_guard_raises_when_fronts_cannot_advance():
    """With retransmission effectively unbounded the stall guard fires."""
    g = FAMILIES["gnp"](0)
    cfg = ReliableConfig(rto=1, backoff=1.0, max_tries=10_000,
                         stall_factor=2, stall_slack=20)
    with pytest.raises(ProtocolError):
        run_baswana(
            g, 0,
            reliable=True,
            fault_plan=FaultPlan(seed=1, drop_rate=1.0),
            reliable_config=cfg,
        )


def test_smoke_raw_run_under_faults_is_why_the_adapter_exists():
    """Without the adapter a faulted run visibly degrades (or dies)."""
    g = FAMILIES["gnp"](0)
    plan = FaultPlan(seed=9, drop_rate=0.3)
    baseline, _ = run_baswana(g, 0)
    try:
        edges, stats = run_baswana(g, 0, fault_plan=plan)
    except ProtocolError:
        return  # dying loudly is acceptable
    assert stats.dropped > 0
    report = classify_outcome(g, edges, baseline_size=len(baseline))
    # The raw run must not silently coincide with the perfect one.
    assert edges != baseline or report.status == INVALID


def test_smoke_reliable_is_noop_on_perfect_network():
    g = FAMILIES["gnp"](0)
    baseline, base_stats = run_baswana(g, 0)
    edges, stats = run_baswana(g, 0, reliable=True)
    assert edges == baseline
    assert stats.retransmissions == 0
    assert stats.dropped == 0
