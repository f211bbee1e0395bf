"""Tests for the Section 2 linear-size skeleton algorithm."""

from __future__ import annotations


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theory import skeleton_distortion_bound, skeleton_size_bound
from repro.core import build_skeleton
from repro.core.schedule import Round
from repro.graphs import (
    Graph,
    complete,
    erdos_renyi_gnp,
    grid_2d,
    hypercube,
    path,
)
from repro.spanner import verify_connectivity, verify_subgraph
from repro.util import make_prf


class TestBasicGuarantees:
    def test_spanner_is_subgraph(self, any_graph):
        sp = build_skeleton(any_graph, D=4, seed=1)
        assert verify_subgraph(any_graph, sp.edges)

    def test_connectivity_preserved(self, any_graph):
        sp = build_skeleton(any_graph, D=4, seed=2)
        assert verify_connectivity(any_graph, sp.subgraph())

    def test_distortion_within_theory_bound(self, any_graph):
        sp = build_skeleton(any_graph, D=4, seed=3)
        bound = skeleton_distortion_bound(any_graph.n, 4)
        stats = sp.stretch()
        assert stats.max_multiplicative <= bound

    def test_empty_graph(self):
        sp = build_skeleton(Graph(), D=4, seed=1)
        assert sp.size == 0

    def test_single_vertex(self):
        sp = build_skeleton(Graph(vertices=[3]), D=4, seed=1)
        assert sp.size == 0

    def test_single_edge(self):
        g = path(2)
        sp = build_skeleton(g, D=4, seed=1)
        assert sp.edges == {(0, 1)}

    def test_disconnected_graph(self):
        g = Graph(edges=[(0, 1), (1, 2), (5, 6), (6, 7)])
        g.add_vertex(99)
        sp = build_skeleton(g, D=4, seed=4)
        assert verify_connectivity(g, sp.subgraph())


class TestSize:
    def test_linear_size_on_dense_graph(self):
        # m ~ n^2/8 but the skeleton must be ~ D n / e + O(n log D).
        g = erdos_renyi_gnp(400, 0.25, seed=5)
        sp = build_skeleton(g, D=4, seed=6)
        assert sp.size < skeleton_size_bound(g.n, 4) * 1.5

    def test_size_bound_over_many_seeds(self):
        # Lemma 6 bounds the EXPECTATION; average over seeds obeys it.
        g = erdos_renyi_gnp(250, 0.15, seed=7)
        sizes = [
            build_skeleton(g, D=4, seed=s).size for s in range(8)
        ]
        assert sum(sizes) / len(sizes) <= skeleton_size_bound(g.n, 4)

    def test_larger_d_gives_larger_spanner_budget(self):
        g = erdos_renyi_gnp(300, 0.3, seed=8)
        small = [build_skeleton(g, D=4, seed=s).size for s in range(4)]
        # Budget grows with D; we check the bound scales, and measured
        # stays under the matching bound on both sides.
        assert skeleton_size_bound(g.n, 8) > skeleton_size_bound(g.n, 4)
        assert sum(small) / 4 <= skeleton_size_bound(g.n, 4)
        big = [build_skeleton(g, D=8, seed=s).size for s in range(4)]
        assert sum(big) / 4 <= skeleton_size_bound(g.n, 8)

    def test_never_larger_than_host(self):
        g = complete(40)
        sp = build_skeleton(g, D=4, seed=9)
        assert sp.size <= g.m


class TestTraceAndMetadata:
    def test_trace_round_accounting(self):
        g = erdos_renyi_gnp(200, 0.1, seed=10)
        sp = build_skeleton(g, D=4, seed=11)
        trace = sp.metadata["trace"]
        assert trace.total_expand_calls == sp.metadata["expand_calls"]
        assert trace.rounds[0].vertices_before == g.n
        # Vertices never increase between rounds.
        for a, b in zip(trace.rounds, trace.rounds[1:]):
            assert b.vertices_before <= a.vertices_after

    def test_all_vertices_die_by_the_end(self):
        g = erdos_renyi_gnp(150, 0.1, seed=12)
        sp = build_skeleton(g, D=4, seed=13)
        trace = sp.metadata["trace"]
        assert trace.rounds[-1].vertices_after == 0

    def test_cluster_counts_decrease(self):
        g = erdos_renyi_gnp(200, 0.1, seed=14)
        sp = build_skeleton(g, D=4, seed=15)
        counts = sp.metadata["cluster_counts"]
        assert counts[-1] == 0
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_deterministic_given_seed(self):
        g = erdos_renyi_gnp(150, 0.08, seed=16)
        a = build_skeleton(g, D=4, seed=17)
        b = build_skeleton(g, D=4, seed=17)
        assert a.edges == b.edges

    def test_prf_mode_deterministic(self):
        g = erdos_renyi_gnp(150, 0.08, seed=18)
        a = build_skeleton(g, D=4, prf=make_prf(19))
        b = build_skeleton(g, D=4, prf=make_prf(19))
        assert a.edges == b.edges


class TestVariants:
    def test_exact_form_schedule_variant(self):
        g = erdos_renyi_gnp(200, 0.1, seed=20)
        sp = build_skeleton(g, D=4, seed=21, exact_form=True)
        assert verify_connectivity(g, sp.subgraph())

    def test_custom_schedule(self):
        g = grid_2d(8, 8)
        schedule = [Round(p=0.25, iterations=2, final_zero=True)]
        sp = build_skeleton(g, D=4, seed=22, schedule=schedule)
        assert verify_connectivity(g, sp.subgraph())

    def test_eps_variants_all_valid(self):
        g = erdos_renyi_gnp(200, 0.08, seed=23)
        for eps in (0.25, 0.5, 1.0):
            sp = build_skeleton(g, D=4, eps=eps, seed=24)
            assert verify_connectivity(g, sp.subgraph())

    def test_large_d_falls_back_to_exact_form(self):
        # D = 16 > log^0.5 n for small n; the builder must still work.
        g = erdos_renyi_gnp(120, 0.2, seed=25)
        sp = build_skeleton(g, D=16, seed=26)
        assert verify_connectivity(g, sp.subgraph())


class TestScale:
    def test_twenty_thousand_vertices(self):
        """Laptop-scale stress: the O(m)-ish build holds up at n = 20k."""
        g = erdos_renyi_gnp(20_000, 6.0 / 20_000, seed=77)
        sp = build_skeleton(g, D=4, seed=78)
        assert sp.size <= skeleton_size_bound(g.n, 4)
        stats = sp.stretch(num_sources=5, seed=1)
        assert stats.ok
        assert stats.max_multiplicative <= skeleton_distortion_bound(
            g.n, 4
        )


class TestPropertyBased:
    @given(
        st.integers(10, 80),
        st.floats(0.05, 0.4),
        st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_graphs_connectivity_and_subgraph(self, n, p, seed):
        g = erdos_renyi_gnp(n, p, seed=seed)
        sp = build_skeleton(g, D=4, seed=seed + 1)
        assert verify_subgraph(g, sp.edges)
        assert verify_connectivity(g, sp.subgraph())

    @given(st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_hypercube_distortion(self, seed):
        g = hypercube(5)
        sp = build_skeleton(g, D=4, seed=seed)
        bound = skeleton_distortion_bound(g.n, 4)
        assert sp.stretch(num_sources=8, seed=0).max_multiplicative <= bound
