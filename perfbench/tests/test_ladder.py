from perfbench.client import PhaseResult
from perfbench.serve import LIMIT_MS, ladder_qps, step_passes


def _phase(rate, latency_ms, sent=200, answered=None, backlog=0,
           late_ms=0.0):
    answered = sent if answered is None else answered
    result = PhaseResult(rate=rate, sent=sent, backlog_at_end=backlog)
    for rid in range(answered):
        result.latency_s[rid] = latency_ms / 1e3
        result.responses[rid] = b"{}"
    result.late_s = [late_ms / 1e3] * sent
    return result


def test_highest_rate_meeting_the_limit():
    ladder = [_phase(r, 1.0) for r in (4000, 6000, 8000)]
    ladder.append(_phase(10000, LIMIT_MS * 2))
    assert ladder_qps(ladder) == 8000


def test_ladder_stops_at_first_rate_that_fails_every_try():
    ladder = [_phase(4000, 1.0), _phase(6000, LIMIT_MS * 2),
              _phase(6000, LIMIT_MS * 2), _phase(8000, 1.0)]
    assert ladder_qps(ladder) == 4000
    assert ladder_qps([_phase(4000, LIMIT_MS * 2)]) == 0.0


def test_a_retry_that_passes_keeps_the_ladder_going():
    ladder = [_phase(4000, 1.0), _phase(6000, LIMIT_MS * 2),
              _phase(6000, 1.0), _phase(8000, 1.0),
              _phase(10000, LIMIT_MS * 2), _phase(10000, LIMIT_MS * 2)]
    assert ladder_qps(ladder) == 8000


def test_growing_backlog_fails_a_step():
    rate = 10000
    allowed = int(rate * LIMIT_MS / 1e3)
    assert step_passes(_phase(rate, 1.0, backlog=allowed))
    assert not step_passes(_phase(rate, 1.0, backlog=allowed + 1))


def test_unanswered_or_late_generator_fails_a_step():
    assert not step_passes(_phase(4000, 1.0, answered=199))
    assert not step_passes(_phase(4000, 1.0, late_ms=LIMIT_MS * 2))
    assert step_passes(_phase(4000, LIMIT_MS))
