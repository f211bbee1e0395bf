"""Compare benchmark reports of two commits, metric by metric.

    python3 perfbench/compare.py --base A1.json A2.json ... \\
        --new B1.json B2.json ... [--allow-provenance-mismatch]

Reports come from ``run.py --report PATH``.  Each side's value of a
metric is the median over its reports.  A metric regresses when the new
median is worse than the base median by more than the metric's bound.

Reports measured on different CPU counts, interpreters, platforms or
machine speeds are not compared unless ``--allow-provenance-mismatch``
is given: exit code 2.  Exit code 1 means a regression, 0 none.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Sequence

if __package__ in (None, ""):
    import os
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.provenance import mismatches  # noqa: E402
from perfbench.stats import median  # noqa: E402

class ProvenanceMismatch(ValueError):
    """The reports were measured under different provenance."""


def check_provenance(base: Sequence[Dict[str, Any]],
                     new: Sequence[Dict[str, Any]],
                     allow: bool = False) -> Dict[str, Any]:
    """Raise :class:`ProvenanceMismatch` unless every report matches the
    first base report (or ``allow``); returns the mismatches found."""
    first = base[0]["provenance"]
    found: Dict[str, Any] = {}
    for report in list(base[1:]) + list(new):
        found.update(mismatches(first, report["provenance"]))
    if found and not allow:
        raise ProvenanceMismatch(
            "reports differ in " + ", ".join(
                f"{key} ({a!r} vs {b!r})" for key, (a, b) in found.items()
            )
        )
    return found


def compare(base: Sequence[Dict[str, Any]], new: Sequence[Dict[str, Any]]
            ) -> List[Dict[str, Any]]:
    """One row per metric present on both sides."""
    workloads = {r["workload"] for r in list(base) + list(new)}
    if len(workloads) != 1:
        raise ValueError(f"reports of different workloads: {workloads}")
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    rows = []
    specs = [(n, u, b) for n, u, b, _ in END_TO_END] + list(PER_LAYER)
    for name, unit, better in specs:
        if not all(name in r["metrics"] for r in list(base) + list(new)):
            continue
        a = median([r["metrics"][name] for r in base])
        b = median([r["metrics"][name] for r in new])
        ratio = b / a if a else (1.0 if b == a else float("inf"))
        bound = bounds.get(name)
        worse = ratio - 1 if better == "lower" else 1 - ratio
        rows.append({
            "metric": name, "unit": unit, "base": a, "new": b,
            "ratio": ratio, "bound": bound,
            "regressed": bound is not None and worse > bound,
        })
    return rows


def _load(paths: Sequence[str]) -> List[Dict[str, Any]]:
    reports = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--allow-provenance-mismatch", action="store_true")
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    try:
        found = check_provenance(base, new, args.allow_provenance_mismatch)
    except ProvenanceMismatch as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    if found:
        print(f"warning: comparing across provenance: {sorted(found)}")
    rows = compare(base, new)
    for row in rows:
        flag = "REGRESSED" if row["regressed"] else ""
        bound = f"{row['bound']:.3f}" if row["bound"] is not None else "-"
        print(f"{row['metric']:<30} {row['base']:>12.5g} {row['new']:>12.5g}"
              f" {row['unit']:<8} ratio {row['ratio']:.3f}"
              f" bound {bound} {flag}")
    regressions = sum(row["regressed"] for row in rows)
    print(f"{regressions} regression(s) over {len(rows)} metric(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
