"""The human-readable part of a run's output."""

from __future__ import annotations

from typing import Any, Dict

from perfbench.layers import RECONCILE_TOLERANCE, reconciles
from perfbench.metrics import UNITS


def render(report: Dict[str, Any]) -> str:
    prov = report["provenance"]
    outcome = report["outcome"]
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"seconds {report['seconds']}  trace {report['trace']}",
        f"provenance: sha {prov['git_sha']}  cpus {prov['cpus']}  "
        f"python {prov['python']}  {prov['platform']}  "
        f"calibration {prov['calibration_s'] * 1e3:.2f} ms",
        f"operations: {outcome['attempted']} attempted, "
        f"{outcome['failed']} failed "
        f"(error_rate {outcome['failed'] / outcome['attempted']:.4g}); "
        f"output checks {'pass' if not outcome['failed'] else 'FAIL'}",
    ]
    lines += [f"  FAILED {text}" for text in outcome["failures"][:10]]
    for name, value in report["metrics"].items():
        lines.append(f"  {name:<28} {value:>14.6g} {UNITS[name]}")
    metrics = report["metrics"]
    skipped = report["detail"].get("reconcile")
    if skipped:
        lines.append(f"self-time reconciliation not applicable: {skipped}; "
                     f"tracing overhead {metrics['trace.overhead_s']:.4g} s")
    elif "trace.reconcile_err" in metrics:
        verdict = "ok" if reconciles(metrics) else "OVER"
        lines.append(
            f"layer self times leave {metrics['trace.unattributed_s']:.4g} s"
            f" of the traced wall time {metrics['trace.wall_s']:.4g} s "
            f"unaccounted for: {metrics['trace.reconcile_err']:.2e} "
            f"(tolerance {RECONCILE_TOLERANCE}: {verdict}); "
            f"tracing overhead {metrics['trace.overhead_s']:.4g} s"
        )
    if any(v for n, v in metrics.items() if n.startswith("phase_s.")):
        lines.append("phase_s.* come from one PhaseProfiler rep, which runs "
                     "the engine's general loop")
    return "\n".join(lines)
