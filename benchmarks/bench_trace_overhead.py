"""E21 — what observability costs: tracing/metrics overhead per protocol.

The acceptance bar for the obs subsystem: with tracing *disabled* the
simulator must run the pre-observability code path (one ``obs is None``
check per hot-path branch — target <= 2% round-loop slowdown, i.e.
within noise here), and even *full* tracing should stay a small constant
factor.  This bench times every registry protocol under three settings:

* ``off``      — ``obs=None``: the default, untouched hot path;
* ``metrics``  — :class:`Obs` with a metrics registry + profiler but no
  recorder: per-phase aggregation only;
* ``trace``    — full :class:`TraceRecorder` event capture.

The settings run interleaved for ``REPEATS`` rounds and each reads as
the median CPU time of its runs: a best-of-few wall-clock minimum of
these millisecond runs tracks machine load more than tracing cost.

Invariance check: the protocol output is identical across all three
(observation never perturbs the run).
"""

from __future__ import annotations

import statistics
import time

from repro.analysis.tables import format_table
from repro.graphs import erdos_renyi_gnp
from repro.obs import (
    MetricsRegistry,
    Obs,
    PROTOCOL_SPECS,
    PROTOCOLS,
    PhaseProfiler,
    TraceRecorder,
    run_traced,
)

REPEATS = 7

SETTINGS = {
    "off": lambda: None,
    "metrics": lambda: Obs(
        metrics=MetricsRegistry(), profiler=PhaseProfiler()
    ),
    "trace": lambda: Obs(recorder=TraceRecorder()),
}


def _time_settings(protocol, graph):
    """Median CPU seconds per setting, each setting's output, and the
    trace's event count."""
    times = {name: [] for name in SETTINGS}
    outputs = {}
    events = None
    for _ in range(REPEATS):
        for name, make_obs in SETTINGS.items():
            obs = make_obs()
            t0 = time.process_time()
            result, _ = run_traced(protocol, graph, seed=7, obs=obs)
            times[name].append(time.process_time() - t0)
            if PROTOCOL_SPECS[protocol].spanner:
                result = sorted(result.edges)
            outputs[name] = result
            if obs is not None and obs.recorder is not None:
                events = len(obs.recorder)
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    return medians, outputs, events


def _sweep(graph):
    rows = []
    for protocol in PROTOCOLS:
        t, out, events = _time_settings(protocol, graph)
        # Observation never perturbs the run.
        assert out["off"] == out["metrics"] == out["trace"]
        rows.append(
            (
                protocol,
                f"{1e3 * t['off']:.1f}",
                f"{1e3 * t['metrics']:.1f}",
                f"{t['metrics'] / t['off']:.2f}x",
                f"{1e3 * t['trace']:.1f}",
                f"{t['trace'] / t['off']:.2f}x",
                events,
            )
        )
    return rows


HEADERS = ["protocol", "off ms", "metrics ms", "x off",
           "trace ms", "x off", "events"]


def test_trace_overhead(benchmark, report):
    graph = erdos_renyi_gnp(120, 0.06, seed=4)
    rows = benchmark.pedantic(
        lambda: _sweep(graph), rounds=1, iterations=1
    )
    report(
        "E21 / observability overhead (every registry protocol)",
        format_table(
            HEADERS, rows,
            title=(
                f"G(120, 0.06), median CPU ms of {REPEATS} interleaved "
                "runs; 'off' is the obs=None path"
            ),
        ),
    )
    # Full tracing stays a small constant factor on every protocol.
    assert all(float(r[5].rstrip("x")) < 3.0 for r in rows)
