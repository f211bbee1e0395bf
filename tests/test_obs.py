"""Tests for the observability subsystem (trace / metrics / replay).

The two load-bearing properties:

* **determinism** — a fixed (protocol, graph, seed, fault plan) yields a
  byte-identical JSONL trace on every run;
* **replay exactness** — :func:`repro.obs.reconstruct_stats` rebuilds
  the run's aggregated :class:`NetworkStats` from the trace alone.

Both are asserted for every registry protocol, plain and under the reliable
adapter with a lossy fault plan.
"""

from __future__ import annotations

import hashlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import phase_budget_report, render_phase_budget
from repro.distributed import CrashSpec, FaultEvent, FaultPlan
from repro.distributed.faults import DROP
from repro.distributed.simulator import NetworkStats
from repro.graphs import erdos_renyi_gnp, zoo
from repro.obs import (
    Histogram,
    MetricsRegistry,
    Obs,
    PROTOCOLS,
    PhaseProfiler,
    TraceRecorder,
    dumps_events,
    filter_events,
    first_divergence,
    load_events,
    payload_fingerprint,
    reconstruct_stats,
    run_traced,
    summarize,
)
from repro.__main__ import main as cli_main
from tests.conftest import comparable_result


HOST = erdos_renyi_gnp(40, 0.12, seed=3)


def lossy_plan(seed=5):
    return FaultPlan(
        seed=seed, drop_rate=0.08, duplicate_rate=0.03, delay_rate=0.03
    )


def traced_run(protocol, reliable=False, fault_plan=None, **obs_kwargs):
    recorder = TraceRecorder()
    obs = Obs(recorder=recorder, **obs_kwargs)
    result, stats = run_traced(
        protocol, HOST, seed=7, obs=obs,
        reliable=reliable, fault_plan=fault_plan,
    )
    return recorder, result, stats


# ----------------------------------------------------------------------
# Determinism + replay exactness, every registry protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("faulty", [False, True], ids=["plain", "faulty"])
def test_trace_deterministic_and_replay_exact(protocol, faulty):
    kwargs = (
        {"reliable": True, "fault_plan": lossy_plan()} if faulty else {}
    )
    rec_a, _, stats_a = traced_run(protocol, **kwargs)
    kwargs = (
        {"reliable": True, "fault_plan": lossy_plan()} if faulty else {}
    )
    rec_b, _, stats_b = traced_run(protocol, **kwargs)

    assert rec_a.dumps() == rec_b.dumps()  # byte-identical JSONL
    assert stats_a == stats_b
    # The trace alone reconstructs the aggregated NetworkStats exactly.
    assert reconstruct_stats(rec_a.events) == stats_a
    if faulty:
        assert stats_a.dropped > 0
        assert stats_a.retransmissions > 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_tracing_does_not_change_results(protocol):
    plain, _ = run_traced(protocol, HOST, seed=7)
    _, traced, _ = traced_run(protocol)
    assert comparable_result(protocol, plain) == comparable_result(
        protocol, traced
    )


def test_unknown_protocol_names_the_choices():
    with pytest.raises(ValueError, match="choose from") as err:
        run_traced("nope", HOST, seed=7)
    assert all(protocol in str(err.value) for protocol in PROTOCOLS)


def test_trace_roundtrips_through_jsonl(tmp_path):
    recorder, _, _ = traced_run("baswana_sen")
    path = tmp_path / "trace.jsonl"
    recorder.dump(str(path))
    loaded = TraceRecorder.load(str(path))
    assert loaded.events == recorder.events
    assert loaded.dumps() == recorder.dumps()
    # file-object variant
    assert load_events(io.StringIO(recorder.dumps())) == recorder.events


#: sha256 of the JSONL trace of Baswana-Sen on the smoke grid host
#: (graph seed 1001, protocol seed 1) over the reliable layer under the
#: chaos benchmark's fault rates.  Pins trace bytes across commits: the
#: determinism tests above only compare two runs of the same tree.
GOLDEN_TRACE_SHA256 = (
    "b42a220cf1aba02e4a0e071ee6029a272bdbfa2a0cebe135883fdfbe78c7e378"
)

#: the same pin for the two long chaos runs (same host, seeds and plan).
GOLDEN_TRACE_SHA256_BY_PROTOCOL = {
    "skeleton":
        "cc7b147a4ead3e842a992caac5ef9ba30c41ac38ababe8a897958c350d9463b7",
    "fibonacci":
        "8ac71d0aec49027e513bec014e61e96cb086c95803dafebc865349e1048e8ca2",
}

#: Baswana-Sen again, with a crash-stop and a crash-recover CrashSpec
#: added to the plan: pins the crash branches (transitions, crash-drops
#: of pending and of delayed messages, link death) that a crash-free
#: plan never enters.
GOLDEN_CRASH_TRACE_SHA256 = (
    "53d8b286781c26625d47e86d61f3d38801cdd5c866ac8d9cabe803d7b0c658b4"
)
GOLDEN_CRASHES = (
    CrashSpec(3, crash_round=4),
    CrashSpec(11, crash_round=9, recover_round=30),
)


def _golden_digest(protocol, crashes=()):
    host = zoo.build_host("grid", "smoke", 1001)
    plan = FaultPlan(seed=1, drop_rate=0.05, duplicate_rate=0.02,
                     delay_rate=0.05, reorder_rate=0.1, crashes=crashes)
    recorder = TraceRecorder()
    obs = Obs(recorder=recorder, metrics=MetricsRegistry(),
              protocol=protocol)
    run_traced(protocol, host, seed=1, obs=obs,
               reliable=True, fault_plan=plan)
    return hashlib.sha256(recorder.dumps().encode()).hexdigest()


#: sha256 of the clean JSONL trace of every protocol at its registry
#: defaults on G(60, 0.1) (graph seed 7, protocol seed 11): pins the
#: one default-parameter table against the per-consumer copies it
#: replaced (survey radius 3 included).
GOLDEN_DEFAULT_TRACE_SHA256 = {
    "skeleton":
        "36d73d019b1bc847c339f0a7a09fe6c39dc14dbcaa2d3025d97057bed35e2fe3",
    "baswana_sen":
        "05e372aba9f07eb0c3f92a3b4ffc4236ad0fbf5e96166222c97a7d41527a1958",
    "additive":
        "8004dd402c3fcd83417171624d500eb208b4b872a54b1e7837d0e00a1ced61e4",
    "fibonacci":
        "82b0ce186e9cc746781698a70eed549658ecdd3bd31cfd05f7d3ed60e5107162",
    "survey":
        "0cbeb0ac9cc13b98c6d9c88eaae184950b524d02ee1b5d627bfc6ece9c3069ba",
    "deterministic":
        "9972e9feab4bc6c4202532200afa0aec8c2b26680a9f3ecaeebbfe2f018b2418",
}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_golden_default_trace_digest(protocol):
    recorder = TraceRecorder()
    run_traced(protocol, erdos_renyi_gnp(60, 0.1, seed=7), seed=11,
               obs=Obs(recorder=recorder))
    digest = hashlib.sha256(recorder.dumps().encode()).hexdigest()
    assert digest == GOLDEN_DEFAULT_TRACE_SHA256[protocol]


def test_golden_trace_digest():
    assert _golden_digest("baswana_sen") == GOLDEN_TRACE_SHA256


@pytest.mark.parametrize("protocol", sorted(GOLDEN_TRACE_SHA256_BY_PROTOCOL))
def test_golden_trace_digest_long_runs(protocol):
    expected = GOLDEN_TRACE_SHA256_BY_PROTOCOL[protocol]
    assert _golden_digest(protocol) == expected


def test_golden_trace_digest_with_crashes():
    digest = _golden_digest("baswana_sen", crashes=GOLDEN_CRASHES)
    assert digest == GOLDEN_CRASH_TRACE_SHA256


def test_payload_fingerprint_is_stable():
    assert payload_fingerprint([("a", 1)]) == payload_fingerprint([("a", 1)])
    assert payload_fingerprint([("a", 1)]) != payload_fingerprint([("a", 2)])


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def test_diff_pinpoints_first_divergent_fault():
    """Two runs differing only in the FaultPlan seed diverge at the
    exact first fault the PRFs decide differently."""
    rec_a, _, _ = traced_run(
        "baswana_sen", reliable=True, fault_plan=lossy_plan(seed=1)
    )
    rec_b, _, _ = traced_run(
        "baswana_sen", reliable=True, fault_plan=lossy_plan(seed=2)
    )
    div = first_divergence(rec_a.events, rec_b.events)
    assert div is not None
    # The divergent triple is exact: the event at div.index differs,
    # everything before it agrees.
    assert rec_a.events[: div.index] == rec_b.events[: div.index]
    assert rec_a.events[div.index] == div.event_a
    assert rec_b.events[div.index] == div.event_b
    assert div.event_a != div.event_b
    # Only the fault plan differs, so the first disagreement is an
    # injected fault, with its (round, edge) exposed for the report.
    assert div.event_a["e"] == "fault"
    assert div.round == div.event_a["r"]
    assert div.edge == (div.event_a["src"], div.event_a["dst"])
    assert "first divergence" in div.render()


def test_diff_identical_and_prefix_traces():
    rec, _, _ = traced_run("survey")
    assert first_divergence(rec.events, rec.events) is None
    truncated = rec.events[:-3]
    div = first_divergence(rec.events, truncated)
    assert div is not None
    assert div.index == len(truncated)
    assert div.event_b is None


# ----------------------------------------------------------------------
# Summaries / filtering / report integration
# ----------------------------------------------------------------------
def test_summary_matches_stats():
    recorder, _, stats = traced_run("skeleton")
    summary = summarize(recorder.events)
    assert summary.rounds == stats.rounds
    assert summary.messages == stats.messages
    assert summary.words == stats.total_words
    assert summary.max_message_words == stats.max_message_words
    assert summary.networks == 1
    assert summary.phases  # skeleton marks exchange/converge/... phases
    assert sum(p.rounds for p in summary.phases) == stats.rounds
    rendered = summary.render()
    assert "rounds=" in rendered and "phase" in rendered


def test_filter_events():
    recorder, _, _ = traced_run(
        "baswana_sen", reliable=True, fault_plan=lossy_plan()
    )
    faults = filter_events(recorder.events, kind="fault")
    assert faults and all(e["e"] == "fault" for e in faults)
    round_1 = filter_events(recorder.events, kind="send", round_no=1)
    assert round_1 and all(e["r"] == 1 for e in round_1)
    node = faults[0]["src"]
    touching = filter_events(recorder.events, node=node)
    assert all(
        node in (e.get("src"), e.get("dst"), e.get("node"))
        for e in touching
    )
    assert filter_events(
        recorder.events, kind="send", src=node
    ) == [e for e in recorder.events
          if e["e"] == "send" and e["src"] == node]


def test_phase_budget_report():
    recorder, _, stats = traced_run("baswana_sen")
    rows = phase_budget_report(recorder.events)
    assert [r.phase for r in rows] == ["phase[0]", "phase[1]", "phase[2]"]
    assert all(r.budget == "2" for r in rows)
    assert sum(r.rounds for r in rows) == stats.rounds
    assert abs(sum(r.round_share for r in rows) - 1.0) < 1e-9
    table = render_phase_budget(rows)
    assert "budget/call" in table


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_traced_phase_has_a_budget(protocol):
    recorder, _, _ = traced_run(protocol)
    rows = phase_budget_report(recorder.events)
    assert rows
    assert [r.phase for r in rows if r.budget == "-"] == []


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("rounds", protocol="skeleton")
        c.inc()
        c.inc(4)
        assert reg.counter("rounds", protocol="skeleton").value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("x", phase="a").inc(1)
        reg.counter("x", phase="b").inc(2)
        assert reg.counter("x", phase="a").value == 1
        assert reg.counter("x", phase="b").value == 2

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        g = reg.gauge("load")
        g.set(2.5)
        g.add(0.5)
        assert g.value == 3.0
        h = reg.histogram("width")
        for w in (1, 2, 8):
            h.observe(w)
        assert h.count == 3
        assert h.total == 11
        assert (h.min, h.max) == (1, 8)
        assert h.mean == pytest.approx(11 / 3)

    def test_snapshot_and_render(self):
        reg = MetricsRegistry()
        reg.counter("rounds", protocol="p", phase="f").inc(7)
        assert reg.snapshot()["rounds{phase=f,protocol=p}"] == 7
        assert "rounds{phase=f,protocol=p} 7" in reg.render()

    def test_obs_phase_flushes_metrics(self):
        reg = MetricsRegistry()
        recorder, _, stats = traced_run("additive", metrics=reg)
        total = sum(
            metric.value for _, _, _, metric in reg.collect("rounds")
        )
        assert total == stats.rounds
        phases = {
            labels["phase"]
            for _, _, labels, _ in reg.collect("phase_calls")
        }
        assert phases == {"exchange", "trees"}


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def test_profiler_attributes_time():
    ticks = iter(range(100))
    prof = PhaseProfiler(clock=lambda: next(ticks))
    for _ in range(3):
        token = prof.enter("work")
        prof.exit("work", token)
    timing = prof.timings["work"]
    assert timing.calls == 3 and timing.sampled == 3
    assert timing.seconds == 3  # each enter/exit pair spans one tick
    assert prof.total_seconds() == 3
    assert prof.rows() == [("work", 3, 3.0, 1.0)]
    assert "work" in prof.render()


def test_profiler_sampling_extrapolates():
    ticks = iter(range(1000))
    prof = PhaseProfiler(sample_every=4, clock=lambda: next(ticks))
    for _ in range(8):
        token = prof.enter("p")
        prof.exit("p", token)
    timing = prof.timings["p"]
    assert timing.calls == 8
    assert timing.sampled == 2  # every 4th call is timed
    assert timing.estimated_seconds == timing.seconds * 4


# ----------------------------------------------------------------------
# Bounded fault log (satellite b)
# ----------------------------------------------------------------------
def test_fault_log_is_bounded_with_drop_counter():
    stats = NetworkStats()
    for i in range(10):
        stats.record_fault(FaultEvent(DROP, i, src=0, dst=1), limit=4)
    assert len(stats.fault_events) == 4
    assert stats.fault_events_dropped == 6

    merged = stats.merged_with(stats)
    assert len(merged.fault_events) == 8
    assert merged.fault_events_dropped == 12


def test_fault_log_cap_in_simulation():
    plan = FaultPlan(seed=1, drop_rate=0.3, max_logged_events=5)
    recorder = TraceRecorder()
    _, stats = run_traced(
        "survey", HOST, seed=7, obs=Obs(recorder=recorder), fault_plan=plan
    )
    assert len(stats.fault_events) == 5
    assert stats.fault_events_dropped == stats.dropped - 5
    # The attached recorder keeps full fidelity past the cap...
    faults = filter_events(recorder.events, kind="fault")
    assert len(faults) == stats.dropped
    # ...and replay reproduces the bounded in-memory log exactly.
    assert reconstruct_stats(recorder.events) == stats


# ----------------------------------------------------------------------
# Disabled-tracing guard
# ----------------------------------------------------------------------
def test_disabled_recorder_emits_nothing():
    recorder = TraceRecorder()
    recorder.enabled = False
    obs = Obs(recorder=recorder)
    _, stats = run_traced("baswana_sen", HOST, seed=7, obs=obs)
    assert recorder.events == []
    # Phase bookkeeping still runs (totals live on the Obs, not events).
    assert obs.rounds == stats.rounds


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_record_summary_diff_filter(tmp_path, capsys):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    base = ["trace", "record", "--protocol", "baswana_sen",
            "--n", "30", "--seed", "3", "--drop-rate", "0.1",
            "--reliable"]
    assert cli_main(base + [a]) == 0
    assert cli_main(base + [b, "--fault-seed", "9"]) == 0
    capsys.readouterr()

    assert cli_main(["trace", "summary", a]) == 0
    out = capsys.readouterr().out
    assert "rounds=" in out and "phase[0]" in out

    assert cli_main(["trace", "diff", a, a]) == 0
    assert "identical" in capsys.readouterr().out
    assert cli_main(["trace", "diff", a, b]) == 1
    assert "first divergence" in capsys.readouterr().out

    assert cli_main(["trace", "filter", a, "--kind", "fault"]) == 0
    lines = capsys.readouterr().out.splitlines()
    events = load_events(a)
    assert lines == dumps_events(
        filter_events(events, kind="fault")
    ).splitlines()


def test_cli_record_metrics_profile_stdout(tmp_path, capsys):
    out_file = str(tmp_path / "t.jsonl")
    assert cli_main(["trace", "record", out_file, "--protocol", "survey",
                     "--n", "25", "--metrics", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "events ->" in out
    assert "phase_calls{" in out  # metrics render
    assert "est.sec" in out  # profiler render

    assert cli_main(["trace", "record", "-", "--n", "20",
                     "--protocol", "baswana_sen"]) == 0
    out = capsys.readouterr().out
    events = [line for line in out.splitlines() if line.startswith("{")]
    assert events and all('"e":' in line for line in events)


def test_cli_legacy_fig1_still_works(capsys):
    assert cli_main(["40", "0.1", "5"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1, measured on this host" in out


# ----------------------------------------------------------------------
# Histogram bucketing: O(1) index == the reference doubling loop
# ----------------------------------------------------------------------
def _loop_bucket(value, num_buckets):
    """The original bucket search: double the bound until it covers."""
    index = 0
    bound = 1
    while value > bound and index < num_buckets - 1:
        bound *= 2
        index += 1
    return index


def _edge_values():
    """0, negatives, (0, 1], powers of two and their float neighbours,
    values past the last bucket, NaN and infinities."""
    values = [0, 0.0, -0.0, -1, -2.5, -math.inf, 1e-300, 0.25, 0.5, 1,
              1.0, math.nan, math.inf, 2 ** 80, 1e300]
    for exponent in range(-3, 70):
        power = 2.0 ** exponent
        values += [power, math.nextafter(power, 0.0),
                   math.nextafter(power, math.inf)]
        if exponent >= 0:
            values += [2 ** exponent - 1, 2 ** exponent, 2 ** exponent + 1]
    return values


@pytest.mark.parametrize("num_buckets", [1, 2, 3, 24, 64])
def test_histogram_matches_loop_on_edges(num_buckets):
    for value in _edge_values():
        h = Histogram(num_buckets)
        h.observe(value)
        expected = [0] * num_buckets
        expected[_loop_bucket(value, num_buckets)] = 1
        assert h.buckets == expected, value


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    num_buckets=st.integers(min_value=1, max_value=80),
)
def test_histogram_matches_loop_property(value, num_buckets):
    h = Histogram(num_buckets)
    h.observe(value)
    assert h.buckets.index(1) == _loop_bucket(value, num_buckets)
