"""Tests for the Fibonacci spanner construction (Section 4)."""

from __future__ import annotations

import math

import pytest

from repro.core.theory import theorem7_distortion_bound
from repro.core.fibonacci import (
    FibonacciParams,
    build_fibonacci_spanner,
    sample_levels,
)
from repro.graphs import (
    Graph,
    bfs_distances,
    chain_of_cliques,
    erdos_renyi_gnp,
    grid_2d,
    path,
)
from repro.spanner import verify_connectivity, verify_subgraph


class TestParams:
    def test_defaults(self):
        params = FibonacciParams.resolve(10**6)
        assert params.order >= 1
        assert params.ell == math.ceil(3 * params.order / 0.5) + 2
        assert len(params.probabilities) == params.order

    def test_explicit_order_and_ell(self):
        params = FibonacciParams.resolve(1000, order=3, ell=7)
        assert params.order == 3 and params.ell == 7

    def test_probability_injection(self):
        params = FibonacciParams.resolve(
            1000, order=2, probabilities=[0.5, 0.1]
        )
        assert params.probabilities == [0.5, 0.1]

    def test_probability_count_validated(self):
        with pytest.raises(ValueError):
            FibonacciParams.resolve(1000, order=3, probabilities=[0.5])

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            FibonacciParams.resolve(1000, eps=0)


class TestSampleLevels:
    def test_nested_hierarchy(self):
        g = erdos_renyi_gnp(200, 0.05, seed=1)
        params = FibonacciParams.resolve(g.n, order=3)
        levels = sample_levels(g, params, seed=2)
        assert len(levels) == 4
        assert levels[0] == set(g.vertices())
        for upper, lower in zip(levels, levels[1:]):
            assert lower <= upper

    def test_expected_sizes_track_probabilities(self):
        g = Graph(vertices=range(4000))
        params = FibonacciParams.resolve(
            g.n, order=2, probabilities=[0.5, 0.1]
        )
        levels = sample_levels(g, params, seed=3)
        assert 0.4 * 4000 < len(levels[1]) < 0.6 * 4000
        assert 0.05 * 4000 < len(levels[2]) < 0.18 * 4000

    def test_deterministic(self):
        g = Graph(vertices=range(100))
        params = FibonacciParams.resolve(g.n, order=2)
        assert sample_levels(g, params, seed=4) == sample_levels(
            g, params, seed=4
        )


class TestConstruction:
    def test_subgraph_and_connectivity(self, any_graph):
        sp = build_fibonacci_spanner(any_graph, order=2, seed=5)
        assert verify_subgraph(any_graph, sp.edges)
        assert verify_connectivity(any_graph, sp.subgraph())

    def test_ball_paths_are_exact(self):
        """For u in B_{i+1,ell}(v) the spanner holds a full shortest path,
        so delta_S(v, u) = delta(v, u) — checked against the definition."""
        g = erdos_renyi_gnp(120, 0.05, seed=6)
        params = FibonacciParams.resolve(g.n, order=2, ell=4)
        levels = sample_levels(g, params, seed=7)
        sp = build_fibonacci_spanner(
            g, order=2, ell=4, levels=levels, seed=7
        )
        sub = sp.subgraph()
        for i in (1, 2):
            sources = levels[i - 1]
            targets = levels[i]
            next_level = levels[i + 1] if i + 1 < len(levels) else set()
            for v in sorted(sources)[:20]:
                dist_v = bfs_distances(g, v)
                d_next = min(
                    (dist_v[u] for u in next_level if u in dist_v),
                    default=math.inf,
                )
                radius = min(4.0**i, d_next - 1)
                dist_s = bfs_distances(sub, v)
                for u in targets:
                    d = dist_v.get(u)
                    if d is not None and 1 <= d <= radius:
                        assert dist_s.get(u) == d

    def test_forest_edges_connect_to_pi(self):
        """Every v with delta(v, V_i) <= ell^{i-1} reaches p_i(v) at true
        distance inside the spanner (the P(v, p_i(v)) forest)."""
        from repro.graphs.properties import multi_source_bfs

        g = grid_2d(10, 10)
        params = FibonacciParams.resolve(g.n, order=2, ell=5)
        levels = sample_levels(g, params, seed=8)
        sp = build_fibonacci_spanner(g, order=2, ell=5, levels=levels)
        sub = sp.subgraph()
        for i in (1, 2):
            if not levels[i]:
                continue
            dist, root, _ = multi_source_bfs(g, levels[i])
            for v in g.vertices():
                d = dist.get(v)
                if d is not None and 1 <= d <= 5 ** (i - 1):
                    assert bfs_distances(sub, v).get(root[v]) == d

    def test_metadata_levels(self):
        g = erdos_renyi_gnp(150, 0.05, seed=9)
        sp = build_fibonacci_spanner(g, order=3, seed=10)
        assert len(sp.metadata["level_sizes"]) == 4
        assert len(sp.metadata["level_edge_counts"]) == 4

    def test_levels_length_validated(self):
        g = path(10)
        with pytest.raises(ValueError):
            build_fibonacci_spanner(g, order=2, levels=[set(g.vertices())])

    def test_empty_top_level_degenerates_gracefully(self):
        # With V_1 empty the spanner is the whole graph (B_1 uncut).
        g = path(20)
        sp = build_fibonacci_spanner(
            g, order=1, levels=[set(g.vertices()), set()]
        )
        assert sp.size == g.m


class TestDistortion:
    def test_stage_bounds_on_grid(self):
        """Measured stretch per distance must respect Theorem 7's staged
        bound (checked with the construction's own o, eps)."""
        g = grid_2d(14, 14)
        o, eps = 2, 0.5
        sp = build_fibonacci_spanner(g, order=o, eps=eps, seed=11)
        from repro.spanner import distance_profile

        profile = distance_profile(
            g, sp.subgraph(), num_sources=25, seed=12
        )
        for d, (_, _, max_mult, _) in profile.items():
            assert max_mult <= theorem7_distortion_bound(d, o, eps) + 1e-9

    def test_long_range_pairs_near_optimal(self):
        # Stage 4: distant pairs approach stretch 1 + eps.
        g = chain_of_cliques(8, 4, link_length=6)
        sp = build_fibonacci_spanner(g, order=2, eps=0.5, seed=13)
        from repro.spanner import distance_profile

        profile = distance_profile(g, sp.subgraph(), num_sources=30, seed=1)
        far = [mx for d, (_, _, mx, _) in profile.items() if d >= 30]
        assert far and max(far) <= 1.5
