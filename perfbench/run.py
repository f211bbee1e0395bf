"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 15
        --trace 0 [--report PATH]

Run from the root of a checkout: the program is imported from
``src/``.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  A human-readable
report comes first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# Importable in this process and in spawned shard workers, which inherit
# sys.path.
for _path in (ROOT, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench.metrics import END_TO_END, PER_LAYER, UNITS, WORKLOADS  # noqa: E402

#: scratch files (spans, serve bundle and socket); git-ignored.
SCRATCH = ".perfbench"


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default="",
                        help="also write the full report (JSON) here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _workload(name: str, seed: int):
    if name == "construct":
        from perfbench.construct import Construct
        return Construct(seed)
    if name == "chaos":
        from perfbench.chaos import Chaos
        return Chaos(seed)
    from perfbench.shard import Shard
    return Shard(seed)


def _reap() -> None:
    """Stop every process this run started and wait for each to end.

    Shard workers are pooled for the life of the process; spawning them
    also starts multiprocessing's resource tracker, which would outlive
    this process by a moment (and stay a zombie under an init that does
    not reap), so it is stopped and waited for here.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    sharded = sys.modules.get("repro.distributed.sharded")
    if sharded is not None:
        sharded.shutdown_workers()
    for proc in multiprocessing.active_children():
        proc.join(timeout=5)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: list) -> int:
    # A SIGTERM unwinds like an error, so every ``finally`` that stops a
    # child process (the serve server, the shard pool) still runs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return _main(argv)
    finally:
        _reap()


def _main(argv: list) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(SCRATCH, exist_ok=True)

    from perfbench.provenance import provenance
    from perfbench.report import render

    spans_path = os.path.join(
        SCRATCH, f"spans-{args.workload}-s{args.seed}.jsonl"
    )
    if args.workload == "serve":
        from perfbench import serve
        result = (serve.traced_run(args.seed, args.seconds, SCRATCH)
                  if args.trace else
                  serve.timed_run(args.seed, args.seconds, SCRATCH))
    else:
        from perfbench import batch
        workload = _workload(args.workload, args.seed)
        result = (batch.traced_run(workload, args.seconds, spans_path)
                  if args.trace else
                  batch.timed_run(workload, args.seconds))
    wanted = PER_LAYER if args.trace else END_TO_END
    names = [row[0] for row in wanted]
    outcome = result["outcome"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(ROOT),
        "outcome": outcome,
        "metrics": {n: result["metrics"][n] for n in names},
        "detail": result.get("detail", {}),
    }
    print(render(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            n: {"value": report["metrics"][n], "unit": UNITS[n]}
            for n in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
