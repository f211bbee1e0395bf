"""Tests for the fault-injection layer (FaultPlan + Network integration)."""

from __future__ import annotations

from typing import Any, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    Api,
    CrashSpec,
    FaultEvent,
    FaultPlan,
    Network,
    NodeProgram,
    ReliableConfig,
)
from repro.distributed.faults import (
    AMNESIA,
    CRASH,
    CRASH_DROP,
    DELAY,
    DELIVER,
    DROP,
    DUPLICATE,
    RECOVER,
)
from repro.graphs import complete, path, star
from repro.util.rng import ensure_rng, make_prf


class Recorder(NodeProgram):
    """Broadcasts its id every round; records (round, src, payload)."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.heard: List[Tuple[int, int, Any]] = []

    def setup(self, api: Api) -> None:
        api.broadcast(("s", self.node_id))

    def on_round(self, api, round_index, inbox) -> None:
        self.heard.extend((round_index, src, p) for src, p in inbox)
        api.broadcast((round_index, self.node_id))


def run_recorders(graph, plan, rounds=6):
    programs = {v: Recorder(v) for v in graph.vertices()}
    net = Network(graph, programs=programs, fault_plan=plan)
    net.run(max_rounds=rounds)
    return programs, net


class TestPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)

    def test_rates_must_partition_unit_interval(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.5, duplicate_rate=0.4, delay_rate=0.2)

    def test_duplicate_crash_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(crashes=[CrashSpec(1, 2), (1, 5)])

    def test_crash_tuples_accepted(self):
        plan = FaultPlan(crashes=[(4, 2, 5)])
        assert plan.is_crashed(4, 3)
        assert not plan.is_crashed(4, 5)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        mk = lambda: FaultPlan(  # noqa: E731
            seed=11, drop_rate=0.2, duplicate_rate=0.1, delay_rate=0.1,
            reorder_rate=0.3,
        )
        a, b = mk(), mk()
        for r in range(1, 5):
            for src in range(4):
                for dst in range(4):
                    assert a.decide(r, src, dst, 0) == b.decide(r, src, dst, 0)
            assert a.reorder_permutation(r, 0, 5) == b.reorder_permutation(
                r, 0, 5
            )

    def test_same_seed_same_run(self):
        g = complete(6)
        p1, n1 = run_recorders(g, FaultPlan(seed=3, drop_rate=0.3))
        p2, n2 = run_recorders(g, FaultPlan(seed=3, drop_rate=0.3))
        assert all(p1[v].heard == p2[v].heard for v in g.vertices())
        assert n1.stats.dropped == n2.stats.dropped

    def test_different_seed_different_run(self):
        g = complete(6)
        p1, _ = run_recorders(g, FaultPlan(seed=3, drop_rate=0.3))
        p2, _ = run_recorders(g, FaultPlan(seed=4, drop_rate=0.3))
        assert any(p1[v].heard != p2[v].heard for v in g.vertices())


class TestDrop:
    def test_drop_rate_one_silences_everything(self):
        g = complete(5)
        programs, net = run_recorders(g, FaultPlan(seed=1, drop_rate=1.0))
        assert all(not p.heard for p in programs.values())
        assert net.stats.dropped > 0
        assert net.stats.messages > 0  # sends still accounted

    def test_drop_events_logged(self):
        g = complete(5)
        _, net = run_recorders(g, FaultPlan(seed=1, drop_rate=0.5))
        kinds = {e.kind for e in net.stats.fault_events}
        assert DROP in kinds
        assert net.stats.dropped == sum(
            1 for e in net.stats.fault_events if e.kind == DROP
        )


class TestDuplicateAndDelay:
    def test_duplicate_delivers_twice_same_round(self):
        g = path(2)
        programs, net = run_recorders(
            g, FaultPlan(seed=2, duplicate_rate=1.0), rounds=3
        )
        # Every delivery arrives twice, in the correct round.
        by_round = {}
        for r, src, payload in programs[1].heard:
            by_round.setdefault((r, src, repr(payload)), 0)
            by_round[(r, src, repr(payload))] += 1
        assert by_round and all(c == 2 for c in by_round.values())
        assert net.stats.duplicated > 0

    def test_delay_postpones_by_bounded_rounds(self):
        g = path(2)
        plan = FaultPlan(seed=2, delay_rate=1.0, max_delay=3)
        programs, net = run_recorders(g, plan, rounds=10)
        # A message sent in round r normally arrives in round r+1; with
        # delay_rate=1 it arrives in r+1+extra, extra in [1, 3].
        for arrived, _, payload in programs[1].heard:
            sent = 0 if payload[0] == "s" else payload[0]
            extra = arrived - (sent + 1)
            assert 1 <= extra <= 3
        assert net.stats.delayed > 0
        assert any(
            e.kind == DELAY and 1 <= e.info <= 3
            for e in net.stats.fault_events
        )

    def test_delayed_messages_count_as_in_flight(self):
        g = path(2)
        plan = FaultPlan(seed=2, delay_rate=1.0, max_delay=3)

        class Once(NodeProgram):
            def setup(self, api):
                if api.node_id == 0:
                    api.send(1, "x")

            def on_round(self, api, round_index, inbox):
                pass

        net = Network(g, program_factory=lambda v: Once(), fault_plan=plan)
        net.run(1)
        assert net.in_flight  # the delayed message is still pending
        net.run(5)
        assert not net.in_flight


class TestReorder:
    def test_reorder_permutes_within_round(self):
        g = star(6)
        plan = FaultPlan(seed=9, reorder_rate=1.0)
        programs, net = run_recorders(g, plan, rounds=2)
        rounds = {}
        for r, src, _ in programs[0].heard:
            rounds.setdefault(r, []).append(src)
        # Same multiset of sources per round, but some round out of order.
        assert all(sorted(v) == sorted(set(v)) for v in rounds.values())
        assert any(v != sorted(v) for v in rounds.values())
        assert net.stats.reordered > 0


class TestCrash:
    def test_crash_stop_executes_no_further_rounds(self):
        g = complete(4)
        plan = FaultPlan(seed=1, crashes=[CrashSpec(2, crash_round=3)])
        programs, net = run_recorders(g, plan, rounds=6)
        assert max(r for r, _, _ in programs[2].heard) == 2
        # Nobody hears node 2's round >= 3 broadcasts.
        for v in (0, 1, 3):
            assert all(
                not (src == 2 and isinstance(p[0], int) and p[0] >= 3)
                for _, src, p in programs[v].heard
            )
        kinds = [e.kind for e in net.stats.fault_events]
        assert CRASH in kinds and CRASH_DROP in kinds

    def test_crash_recover_resumes_with_state(self):
        g = complete(4)
        plan = FaultPlan(
            seed=1, crashes=[CrashSpec(2, crash_round=3, recover_round=5)]
        )
        programs, net = run_recorders(g, plan, rounds=8)
        seen_rounds = {r for r, _, _ in programs[2].heard}
        assert 3 not in seen_rounds and 4 not in seen_rounds
        assert 5 in seen_rounds  # fail-pause: resumes where it left off
        pre_crash = [x for x in programs[2].heard if x[0] <= 2]
        assert pre_crash  # pre-crash state retained
        assert RECOVER in [e.kind for e in net.stats.fault_events]

    def test_crash_at_round_zero_suppresses_setup(self):
        g = path(3)
        plan = FaultPlan(crashes=[CrashSpec(1, crash_round=0)])
        programs, _ = run_recorders(g, plan, rounds=3)
        assert all(src != 1 for _, src, _ in programs[0].heard)


class TestCrashSpecValidation:
    def test_recover_round_must_exceed_crash_round(self):
        with pytest.raises(ValueError):
            CrashSpec(1, crash_round=5, recover_round=5)
        with pytest.raises(ValueError):
            CrashSpec(1, crash_round=5, recover_round=3)

    def test_valid_window_accepted(self):
        spec = CrashSpec(1, crash_round=5, recover_round=6)
        assert spec.down_at(5)
        assert not spec.down_at(6)

    def test_crash_stop_needs_no_recover_round(self):
        spec = CrashSpec(2, crash_round=4)
        assert spec.down_at(10**6)

    def test_amnesia_requires_recover_round(self):
        with pytest.raises(ValueError):
            CrashSpec(3, crash_round=2, amnesia=True)
        spec = CrashSpec(3, crash_round=2, recover_round=4, amnesia=True)
        assert spec.amnesia

    def test_validation_applies_through_plan_tuples(self):
        # FaultPlan normalizes crash tuples into CrashSpec, so the same
        # window check rejects them.
        with pytest.raises(ValueError):
            FaultPlan(crashes=[(1, 5, 5)])


class AmnesiacRecorder(Recorder):
    """Recorder that implements the volatile-state-loss hook."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.wipes: List[int] = []

    def on_amnesia_recover(self, api, round_index) -> None:
        self.wipes.append(round_index)
        self.heard.clear()


def run_amnesiacs(graph, plan, rounds=8):
    programs = {v: AmnesiacRecorder(v) for v in graph.vertices()}
    net = Network(graph, programs=programs, fault_plan=plan)
    net.run(max_rounds=rounds)
    return programs, net


class TestAmnesia:
    def test_hook_fires_at_recover_round(self):
        g = complete(4)
        plan = FaultPlan(
            seed=1,
            crashes=[
                CrashSpec(2, crash_round=3, recover_round=5, amnesia=True)
            ],
        )
        programs, net = run_amnesiacs(g, plan)
        assert programs[2].wipes == [5]
        # Volatile state is gone: nothing heard before the wipe survives.
        assert all(r >= 5 for r, _, _ in programs[2].heard)
        assert AMNESIA in [e.kind for e in net.stats.fault_events]

    def test_hook_not_fired_for_fail_pause(self):
        g = complete(4)
        plan = FaultPlan(
            seed=1, crashes=[CrashSpec(2, crash_round=3, recover_round=5)]
        )
        programs, net = run_amnesiacs(g, plan)
        assert programs[2].wipes == []
        # Fail-pause: pre-crash state survives the outage.
        assert any(r <= 2 for r, _, _ in programs[2].heard)
        kinds = [e.kind for e in net.stats.fault_events]
        assert RECOVER in kinds and AMNESIA not in kinds

    def test_default_hook_degrades_to_fail_pause(self):
        # Programs that predate the hook inherit NodeProgram's no-op:
        # the amnesia schedule still runs, state is simply retained.
        g = complete(4)
        plan = FaultPlan(
            seed=1,
            crashes=[
                CrashSpec(2, crash_round=3, recover_round=5, amnesia=True)
            ],
        )
        programs, net = run_recorders(g, plan, rounds=8)
        assert any(r <= 2 for r, _, _ in programs[2].heard)
        assert AMNESIA in [e.kind for e in net.stats.fault_events]


class TestReliableConfigValidation:
    def test_rto_must_be_at_least_one(self):
        with pytest.raises(ValueError):
            ReliableConfig(rto=0)

    def test_backoff_must_not_shrink(self):
        with pytest.raises(ValueError):
            ReliableConfig(backoff=0.99)

    def test_max_tries_must_allow_a_retry(self):
        with pytest.raises(ValueError):
            ReliableConfig(max_tries=0)

    def test_stall_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            ReliableConfig(stall_factor=0)

    def test_defaults_construct_and_bound_link_death(self):
        assert ReliableConfig().death_rounds() >= 1


class TestEventLog:
    def test_event_log_truncates_but_counters_do_not(self):
        g = complete(8)
        plan = FaultPlan(seed=1, drop_rate=1.0, max_logged_events=10)
        _, net = run_recorders(g, plan, rounds=5)
        assert len(net.stats.fault_events) == 10
        assert net.stats.dropped > 10
        assert net.stats.faults_injected == net.stats.dropped

    def test_events_render_readably(self):
        e = FaultEvent(DROP, 4, src=1, dst=2)
        assert str(e) == "r4 drop 1->2"
        assert "crash" in str(FaultEvent(CRASH, 2, dst=7))


# ----------------------------------------------------------------------
# The plan's per-tag fault streams against the memoized PRF
# ----------------------------------------------------------------------
_SEEDS = st.integers(min_value=0, max_value=2**64)
_COORD = st.integers(min_value=0, max_value=2**70)
_RATE = st.floats(min_value=0.0, max_value=0.33)


def _reference_decide(prf, plan, round_no, src, dst, slot):
    """``FaultPlan.decide`` as written against the memoized PRF."""
    u = prf("msg", round_no, src, dst, slot)
    if u < plan.drop_rate:
        return DROP, 0
    u -= plan.drop_rate
    if u < plan.duplicate_rate:
        return DUPLICATE, 0
    u -= plan.duplicate_rate
    if u < plan.delay_rate:
        extra = 1 + int(
            prf("delay", round_no, src, dst, slot) * plan.max_delay
        )
        return DELAY, min(extra, plan.max_delay)
    return DELIVER, 0


def _reference_reorder(prf, plan, round_no, dst, size):
    """``FaultPlan.reorder_permutation`` against the memoized PRF."""
    if size < 2 or plan.reorder_rate <= 0.0:
        return None
    if prf("reorder?", round_no, dst) >= plan.reorder_rate:
        return None
    perm = list(range(size))
    ensure_rng(int(prf("reorder-seed", round_no, dst) * 2**63)).shuffle(perm)
    return None if perm == sorted(perm) else perm


class TestFaultStreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=_SEEDS, coords=st.lists(_COORD, min_size=4, max_size=4))
    def test_stream_equals_memoized_prf(self, seed, coords):
        prf = make_prf(seed)
        for tag, arity in (("msg", 4), ("delay", 4),
                           ("reorder?", 2), ("reorder-seed", 2)):
            keys = coords[:arity]
            assert prf.stream(tag, arity)(*keys) == prf(tag, *keys)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=_SEEDS,
        coords=st.lists(_COORD, min_size=4, max_size=4),
        rates=st.tuples(_RATE, _RATE, _RATE, st.floats(0.0, 1.0)),
        max_delay=st.integers(min_value=1, max_value=5),
        size=st.integers(min_value=0, max_value=12),
    )
    def test_decisions_equal_the_memoized_prf(
        self, seed, coords, rates, max_delay, size
    ):
        drop, dup, delay, reorder = rates
        plan = FaultPlan(seed=seed, drop_rate=drop, duplicate_rate=dup,
                         delay_rate=delay, max_delay=max_delay,
                         reorder_rate=reorder)
        prf = make_prf(seed)
        r, src, dst, slot = coords
        assert plan.decide(r, src, dst, slot) == _reference_decide(
            prf, plan, r, src, dst, slot
        )
        assert plan.reorder_permutation(r, dst, size) == _reference_reorder(
            prf, plan, r, dst, size
        )
