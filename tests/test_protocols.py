"""Tests for the distributed spanner protocols (Baswana–Sen, Fibonacci,
skeleton) — guarantees, model compliance, and sequential cross-validation."""

from __future__ import annotations

import math

import pytest

from repro.core.theory import skeleton_distortion_bound
from repro.core import build_skeleton
from repro.core.fibonacci import FibonacciParams, sample_levels
from repro.distributed import (
    distributed_baswana_sen,
    distributed_fibonacci_spanner,
    distributed_skeleton,
)
from repro.distributed.fibonacci_protocol import adjust_probabilities_for_cap
from repro.graphs import erdos_renyi_gnp, grid_2d, path
from repro.spanner import (
    verify_connectivity,
    verify_spanner_guarantee,
    verify_subgraph,
)
from repro.util import make_prf


class TestDistributedBaswanaSen:
    def test_guarantee(self, any_graph):
        k = 3
        sp = distributed_baswana_sen(any_graph, k, seed=1)
        ok, worst = verify_spanner_guarantee(
            any_graph, sp.subgraph(), alpha=2 * k - 1
        )
        assert ok, worst
        assert verify_connectivity(any_graph, sp.subgraph())

    def test_round_complexity_2k(self):
        g = erdos_renyi_gnp(150, 0.08, seed=2)
        k = 4
        sp = distributed_baswana_sen(g, k, seed=3)
        assert sp.metadata["network_stats"].rounds <= 2 * k + 1

    def test_unit_messages(self):
        g = erdos_renyi_gnp(120, 0.08, seed=4)
        sp = distributed_baswana_sen(g, 3, seed=5)
        assert sp.metadata["network_stats"].max_message_words == 1

    def test_k1_whole_graph(self):
        g = grid_2d(4, 4)
        assert distributed_baswana_sen(g, 1).size == g.m

    def test_size_comparable_to_sequential(self):
        g = erdos_renyi_gnp(300, 0.1, seed=6)
        dist_sizes = [
            distributed_baswana_sen(g, 3, seed=s).size for s in range(3)
        ]
        from repro.baselines import baswana_sen_spanner

        seq_sizes = [
            baswana_sen_spanner(g, 3, seed=s).size for s in range(3)
        ]
        assert (
            0.5
            < (sum(dist_sizes) / 3) / (sum(seq_sizes) / 3)
            < 2.0
        )


class TestDistributedFibonacci:
    def test_guarantee_and_connectivity(self, any_graph):
        sp = distributed_fibonacci_spanner(any_graph, order=2, seed=7)
        assert verify_subgraph(any_graph, sp.edges)
        assert verify_connectivity(any_graph, sp.subgraph())

    def test_matches_sequential_with_shared_levels(self):
        from repro.core.fibonacci import build_fibonacci_spanner

        g = erdos_renyi_gnp(150, 0.05, seed=8)
        params = FibonacciParams.resolve(g.n, order=2, eps=0.5)
        levels = sample_levels(g, params, seed=9)
        seq = build_fibonacci_spanner(g, order=2, eps=0.5, levels=levels)
        dist = distributed_fibonacci_spanner(
            g, order=2, eps=0.5, levels=levels
        )
        # Same balls, same forests — possibly different (equally short)
        # path tie-breaks, so sizes agree closely but not exactly.
        assert abs(seq.size - dist.size) <= 0.1 * max(seq.size, 1)
        # Both must satisfy the same metric guarantee on sampled pairs.
        assert seq.stretch(num_sources=15, seed=1).ok
        assert dist.stretch(num_sources=15, seed=1).ok

    def test_rounds_scale_with_ell_power_order(self):
        g = grid_2d(9, 9)
        sp = distributed_fibonacci_spanner(g, order=2, eps=1.0, seed=10)
        ell, o = sp.metadata["ell"], sp.metadata["order"]
        budget = 6 * sum(ell**i + 1 for i in range(o + 1))
        assert sp.metadata["network_stats"].rounds <= budget

    def test_message_cap_respected_or_ceased(self):
        # With a harsh cap the protocol must stay correct via the
        # Las-Vegas fallback, never silently wrong.
        g = erdos_renyi_gnp(100, 0.08, seed=11)
        sp = distributed_fibonacci_spanner(
            g, order=2, seed=12, max_message_words=2
        )
        assert verify_connectivity(g, sp.subgraph())

    def test_fallback_commands_recorded(self):
        g = erdos_renyi_gnp(100, 0.1, seed=13)
        sp = distributed_fibonacci_spanner(
            g, order=2, seed=14, max_message_words=1
        )
        assert "fallback_commands" in sp.metadata

    def test_phase_stats_cover_stages(self):
        g = grid_2d(6, 6)
        sp = distributed_fibonacci_spanner(g, order=2, seed=15)
        names = [name for name, _ in sp.metadata["phase_stats"]]
        assert any(name.startswith("forest") for name in names)
        assert any(name.startswith("ball") for name in names)
        assert any(name.startswith("retrace") for name in names)

    def test_t_parameter_sets_cap(self):
        g = erdos_renyi_gnp(120, 0.06, seed=16)
        sp = distributed_fibonacci_spanner(g, order=3, t=2, seed=17)
        assert sp.metadata["message_cap"] == math.ceil(g.n ** 0.5)


class TestAdjustProbabilities:
    def test_untouched_when_ratios_small(self):
        qs = [0.5, 0.4, 0.3]
        assert adjust_probabilities_for_cap(10**6, qs, t=2) == qs

    def test_replaces_steep_tail_with_geometric(self):
        n = 10**4
        qs = [0.5, 1e-4]
        out = adjust_probabilities_for_cap(n, qs, t=4)
        ratio = n ** (1 / 4)
        for a, b in zip(out, out[1:]):
            assert a / b <= ratio + 1e-6

    def test_order_grows_at_most_by_t_ish(self):
        n = 10**4
        qs = [0.9, 1e-4]
        out = adjust_probabilities_for_cap(n, qs, t=4)
        assert len(out) <= len(qs) + 4

    def test_validates_t(self):
        with pytest.raises(ValueError):
            adjust_probabilities_for_cap(100, [0.5], t=0)


class TestDistributedSkeleton:
    def test_cross_validation_with_sequential(self):
        """Same PRF => identical cluster evolution, call for call."""
        g = erdos_renyi_gnp(200, 0.05, seed=18)
        seq = build_skeleton(g, D=4, prf=make_prf(99))
        dist = distributed_skeleton(g, D=4, seed=99)
        assert (
            seq.metadata["cluster_counts"] == dist.metadata["cluster_counts"]
        )
        assert abs(seq.size - dist.size) <= 0.05 * seq.size + 5

    def test_guarantees(self, any_graph):
        sp = distributed_skeleton(any_graph, D=4, seed=19)
        assert verify_subgraph(any_graph, sp.edges)
        assert verify_connectivity(any_graph, sp.subgraph())

    def test_distortion_bound(self):
        g = erdos_renyi_gnp(150, 0.07, seed=20)
        sp = distributed_skeleton(g, D=4, seed=21)
        bound = skeleton_distortion_bound(g.n, 4)
        assert sp.stretch(num_sources=20, seed=1).max_multiplicative <= bound

    def test_no_cap_violations_at_default_cap(self):
        g = erdos_renyi_gnp(200, 0.06, seed=22)
        sp = distributed_skeleton(g, D=4, seed=23)
        assert sp.metadata["network_stats"].violations == 0

    def test_budgeted_rounds_reported(self):
        g = grid_2d(8, 8)
        sp = distributed_skeleton(g, D=4, seed=24)
        stats = sp.metadata["network_stats"]
        assert sp.metadata["budgeted_rounds"] >= stats.rounds

    def test_path_graph(self):
        g = path(30)
        sp = distributed_skeleton(g, D=4, seed=25)
        assert verify_connectivity(g, sp.subgraph())

    def test_disconnected_graph(self):
        from repro.graphs import Graph

        g = Graph(edges=[(0, 1), (1, 2), (5, 6)])
        g.add_vertex(9)
        sp = distributed_skeleton(g, D=4, seed=26)
        assert verify_connectivity(g, sp.subgraph())
