"""Quickstart: build the paper's two spanners and measure them.

Run:  python examples/quickstart.py
"""

from repro import build_fibonacci_spanner, build_skeleton
from repro.core.theory import (
    skeleton_distortion_bound,
    skeleton_size_bound,
)
from repro.graphs import erdos_renyi_gnp
from repro.spanner import verify_connectivity


def main() -> None:
    # The communication network we want a sparse substitute for.
    graph = erdos_renyi_gnp(1000, 0.02, seed=7)
    print(f"host graph: n={graph.n}, m={graph.m}")

    # ---- Section 2: the linear-size skeleton ------------------------
    skeleton = build_skeleton(graph, D=4, seed=1)
    stats = skeleton.stretch(num_sources=50, seed=2)
    print("\nlinear-size skeleton (Theorem 2, D=4)")
    print(f"  size            : {skeleton.size} edges "
          f"({skeleton.density:.2f} per vertex)")
    print(f"  Lemma 6 bound   : {skeleton_size_bound(graph.n, 4):.0f}")
    print(f"  max stretch     : {stats.max_multiplicative:.1f} "
          f"(bound {skeleton_distortion_bound(graph.n, 4):.0f})")
    print(f"  mean stretch    : {stats.mean_multiplicative:.2f}")
    print(f"  connectivity ok : "
          f"{verify_connectivity(graph, skeleton.subgraph())}")

    # ---- Section 4: the Fibonacci spanner ---------------------------
    fib = build_fibonacci_spanner(graph, order=2, eps=0.5, seed=3)
    stats = fib.stretch(num_sources=50, seed=4)
    print("\nFibonacci spanner (Theorem 7, order=2)")
    print(f"  size            : {fib.size} edges")
    print(f"  level sizes     : {fib.metadata['level_sizes']}")
    print(f"  max stretch     : {stats.max_multiplicative:.1f}")
    print(f"  mean stretch    : {stats.mean_multiplicative:.3f}")
    print(f"  connectivity ok : {verify_connectivity(graph, fib.subgraph())}")


if __name__ == "__main__":
    main()
