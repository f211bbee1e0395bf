"""The hot-path equivalence oracle: fast loop == instrumented loop.

``Network.run`` dispatches to a specialized inner loop when there is no
fault plan and no observer (``simulator._run_clean``) and to the fully
instrumented loop otherwise (``_run_general``).  The optimization
contract is that the two are *indistinguishable*: identical protocol
outputs and identical :class:`NetworkStats` on every workload.  These
tests pin that contract across every registry protocol — attaching a tracer
(which forces the general loop) must change nothing but the trace, and
fault-plan runs must replay byte-identically.
"""

from __future__ import annotations

from typing import Any

import pytest

from repro.distributed import FaultPlan
from repro.graphs import erdos_renyi_gnp
from repro.obs import Obs, PROTOCOLS, TraceRecorder, run_traced
from tests.conftest import comparable_result


def _host() -> Any:
    return erdos_renyi_gnp(60, 0.1, seed=7)


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestFastPathEquivalence:
    def test_clean_run_matches_instrumented_run(self, protocol):
        """obs=None (fast loop) == obs=TraceRecorder (general loop)."""
        fast_result, fast_stats = run_traced(
            protocol, _host(), seed=11, obs=None
        )
        obs = Obs(recorder=TraceRecorder())
        slow_result, slow_stats = run_traced(
            protocol, _host(), seed=11, obs=obs
        )
        assert fast_stats == slow_stats
        assert comparable_result(protocol, fast_result) == comparable_result(
            protocol, slow_result
        )

    def test_faulty_run_is_obs_neutral(self, protocol):
        """With a fault plan both runs take the general loop; attaching
        an observer must still not perturb outcomes."""
        plan = FaultPlan(
            seed=5, drop_rate=0.05, delay_rate=0.05, reorder_rate=0.1
        )
        bare_result, bare_stats = run_traced(
            protocol, _host(), seed=11, obs=None, fault_plan=plan
        )
        obs = Obs(recorder=TraceRecorder())
        seen_result, seen_stats = run_traced(
            protocol, _host(), seed=11, obs=obs, fault_plan=plan
        )
        assert bare_stats == seen_stats
        assert comparable_result(protocol, bare_result) == comparable_result(
            protocol, seen_result
        )

    def test_faulty_trace_replays_byte_identically(self, protocol):
        traces = []
        for _ in range(2):
            recorder = TraceRecorder()
            run_traced(
                protocol,
                _host(),
                seed=11,
                obs=Obs(recorder=recorder),
                fault_plan=FaultPlan(seed=5, drop_rate=0.1, delay_rate=0.1),
            )
            traces.append(recorder.dumps())
        assert traces[0] == traces[1]
