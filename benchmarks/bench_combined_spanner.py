"""E17 — Corollary 1: the combined skeleton + Fibonacci spanner.

At its sparsest the Fibonacci spanner's near-field distortion is
2^{o+1} ~ (log n)^1.44; the paper repairs this by unioning in a Theorem 2
skeleton ("By including such a spanner with a Fibonacci spanner we obtain
the distortion bounds stated in Corollary 1").  We measure all three
objects on one host:

* the Fibonacci part alone (great far field, weak near field at
  aggressive sparsity),
* the skeleton alone (uniform but constant-factor distortion),
* the union (near field capped by the skeleton, far field inherited
  from the Fibonacci part) — at a size that is just the sum.

Also prints Corollary 2's analytic beta triple for context.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.core.theory import corollary2_betas
from repro.core import (
    build_combined_spanner,
    build_fibonacci_spanner,
    build_skeleton,
)
from repro.graphs import grid_2d
from repro.spanner import distance_profile

# Aggressively sparse Fibonacci parameters: bad near field on purpose.
FIB = dict(order=2, ell=4, probabilities=[0.06, 0.01])


def _fields(graph, spanner):
    profile = distance_profile(graph, spanner.subgraph(),
                               num_sources=35, seed=5)
    near = max(
        (mx for d, (_, _, mx, _) in profile.items() if d <= 3), default=1.0
    )
    far = max(
        (mx for d, (_, _, mx, _) in profile.items() if d >= 30), default=1.0
    )
    return near, far


def test_combined_spanner_corollary1(benchmark, report):
    graph = grid_2d(35, 35)

    def run():
        fib = build_fibonacci_spanner(graph, seed=6, **FIB)
        skel = build_skeleton(graph, D=4, seed=7)
        union = build_combined_spanner(graph, D=4, seed=8, **FIB)
        rows = []
        for name, sp in (("fibonacci alone", fib),
                         ("skeleton alone", skel),
                         ("combined (Cor. 1)", union)):
            near, far = _fields(graph, sp)
            rows.append((name, sp.size, round(near, 2), round(far, 2)))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    beta1, beta2, beta3 = corollary2_betas(graph.n, eps=0.5, t=2)
    table = format_table(
        ["construction", "size", "worst stretch d<=3",
         "worst stretch d>=30"],
        rows,
        title=(
            f"grid 35x35 (m={graph.m}); Cor. 2 betas at (eps=.5, t=2): "
            f"b1={beta1:.0f}, b2={beta2:.0f}, b3={beta3:.2g}"
        ),
    )
    report("E17 / combined spanner (Corollary 1)", table)

    by_name = {r[0]: r for r in rows}
    fib_row = by_name["fibonacci alone"]
    skel_row = by_name["skeleton alone"]
    union_row = by_name["combined (Cor. 1)"]
    # The Fibonacci part alone has a genuinely distorted near field.
    assert fib_row[2] > skel_row[2] or fib_row[2] >= 2.0
    # The union repairs the near field to (at worst) the skeleton's...
    assert union_row[2] <= min(fib_row[2], skel_row[2]) + 1e-9
    # ...keeps the good far field...
    assert union_row[3] <= min(fib_row[3], skel_row[3]) + 1e-9
    # ...and costs at most the sum of the parts.
    assert union_row[1] <= fib_row[1] + skel_row[1]
