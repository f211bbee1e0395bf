"""Run ``python -m repro serve`` with spans around the query layers.

    python3 perfbench/serve_launcher.py SUMMARY.json SPANS.jsonl BUNDLE
        --unix PATH

Wraps ``QueryService.handle_request`` and, inside it, the oracle,
router and labeling calls, then hands the remaining arguments to the
serve command.  After the server shuts down it writes the span records
and a summary (per-call latencies, batch sizes, bundle load time, peak
RSS) for the benchmark to read.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: (module, class, method) of the oracle layer under handle_request.
ORACLE_CALLS = (
    ("repro.applications.distance_oracle", "DistanceOracle", "query"),
    ("repro.applications.compact_routing", "CompactRouter", "route"),
    ("repro.applications.labeling", "DistanceLabeling", "query"),
    ("repro.applications.labeling", "DistanceLabeling", "label"),
)


def main(argv: list) -> int:
    import importlib

    from perfbench.common import pid_peak_mb
    from perfbench.spans import Tracer
    from repro.serving import cli, server

    summary_path, spans_path, serve_args = argv[0], argv[1], argv[2:]
    services = []
    original_init = server.QueryService.__init__

    def capture(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        services.append(self)

    server.QueryService.__init__ = capture
    tracer = Tracer()
    tracer.run = "serve"
    tracer.wrap(cli, "load_bundle", "serving.load", record=True)
    tracer.wrap(server.QueryService, "handle_request", "serve.handle",
                record=True)
    for module, cls, method in ORACLE_CALLS:
        owner = getattr(importlib.import_module(module), cls)
        tracer.wrap(owner, method, "serve.oracle", record=True)
    try:
        code = cli.serve_main(serve_args)
    finally:
        tracer.uninstall()
        server.QueryService.__init__ = original_init
    names = {r[0]: r[1] for r in tracer.records}
    handle_us = [(r[5] - r[4]) * 1e6 for r in tracer.records
                 if r[1] == "serve.handle"]
    # Landmark precomputation also queries the oracle; count only the
    # calls a request made.
    oracle_us = [(r[5] - r[4]) * 1e6 for r in tracer.records
                 if r[1] == "serve.oracle" and names.get(r[6]) ==
                 "serve.handle"]
    batches = services[0].metrics.histogram("serving_batch_size")
    summary = {
        "handle_us": handle_us,
        "oracle_us": oracle_us,
        "load_s": tracer.total("serving.load"),
        "batch_mean": batches.mean,
        "peak_rss_mb": pid_peak_mb(os.getpid()),
    }
    tracer.dump(spans_path)
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
