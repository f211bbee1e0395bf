"""The benchmark's workloads and metrics, read from ``BENCHMARK.json``.

Every workload prints every end-to-end metric (``--trace 0``) and every
per-layer metric (``--trace 1``); ``README.md`` says what each one means
on each workload.  A per-layer metric of a layer that a workload does
not exercise reads 0: the wrappers fired no span there.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

_SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)
with open(_SPEC_PATH, encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)

WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in _SPEC["workloads"])

#: (name, unit, better, bound)
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = tuple(
    (m["name"], m["unit"], m["better"], m["bound"])
    for m in _SPEC["end_to_end"]
)

#: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    (m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]
)

UNITS: Dict[str, str] = {
    name: unit for name, unit, *_ in END_TO_END + PER_LAYER
}

PROTOCOLS: Tuple[str, ...] = (
    "skeleton", "fibonacci", "baswana_sen", "deterministic"
)

#: phase families (phase names with indices stripped, first two
#: dot-separated parts) reported from the construct workload's
#: profiled rep; ``BENCHMARK.json`` lists one ``phase_s.<protocol>.
#: <family>`` metric for each.
PHASE_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "skeleton": ("contract", "converge", "decide", "exchange"),
    "fibonacci": ("ball", "cutoff", "forest", "retrace"),
    "baswana_sen": ("phase",),
    "deterministic": (
        "sp.exchange", "sp.fin", "sp.res_death", "sp.res_join",
        "sp.res_up", "sp.res_x", "sp.rule", "sp.survey",
    ),
}
