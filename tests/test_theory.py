"""Tests for the closed-form bounds of repro.core.theory.

Many of these check the paper's lemmas *as mathematical statements*:
Lemma 1's properties of the (s_i) sequence, the Fibonacci identity used
in Lemma 8, and Lemma 10's closed forms dominating Lemma 9's recurrences.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theory import (
    GAMMA,
    PHI,
    critical_edge_discard_probability,
    fib,
    fib_sampling_probabilities,
    fibonacci_size_bound,
    fibonacci_spanner_order_max,
    golden_ratio_exponent,
    lemma9_recurrences,
    lemma10_c_bound,
    lemma10_i_bound,
    log_star,
    num_phases,
    s_sequence,
    skeleton_distortion_bound,
    skeleton_size_bound,
    skeleton_time_bound,
    theorem3_expected_stretch,
    theorem5_time_lower_bound,
    theorem6_time_lower_bound,
    theorem7_distortion_bound,
)


class TestLogStar:
    def test_known_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4
        assert log_star(2**65536 if False else 10**100) == 5

    def test_monotone(self):
        values = [log_star(n) for n in (2, 10, 100, 10**6, 10**30)]
        assert values == sorted(values)


class TestSSequence:
    def test_first_terms(self):
        seq = s_sequence(4, 10**9)
        assert seq[0] == 4 and seq[1] == 4
        assert seq[2] == 4**4 == 256

    def test_growth_rule(self):
        seq = s_sequence(5, 10**12)
        for i in range(2, len(seq) - 1):
            assert seq[i] == seq[i - 1] ** seq[i - 1]

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            s_sequence(3, 100)

    def test_lemma1_part2_log_identity(self):
        # log_b s_i = s_1 ... s_{i-1} log_b D.
        D = 4
        seq = s_sequence(D, 10**30)
        for i in range(1, min(3, len(seq))):
            product = 1
            for j in range(1, i):
                product *= seq[j]
            assert math.isclose(
                math.log(seq[i], 2), product * math.log(D, 2), rel_tol=1e-9
            )

    def test_lemma1_part3_lower_bound(self):
        # s_i >= 2^{i+1} s_1 ... s_{i-1}.
        seq = s_sequence(4, 10**40)
        for i in range(1, len(seq) - 1):
            product = 1
            for j in range(1, i):
                product *= seq[j]
            assert seq[i] >= 2 ** (i + 1) * product

    def test_lemma1_part1_phase_count(self):
        # L <= log* n - log* D + 1 for n of the special form.
        for D in (4, 8):
            seq = s_sequence(D, 10**12)
            # take n = s_1^2 s_2 (L = 2)
            n = seq[1] ** 2 * seq[2]
            assert num_phases(n, D) <= log_star(n) - log_star(D) + 1


class TestSkeletonBounds:
    def test_size_bound_scales_linearly_in_n(self):
        assert skeleton_size_bound(2000, 4) == pytest.approx(
            2 * skeleton_size_bound(1000, 4)
        )

    def test_size_bound_grows_with_d(self):
        assert skeleton_size_bound(1000, 8) > skeleton_size_bound(1000, 4)

    def test_size_bound_dominated_by_dn_over_e(self):
        n, D = 10**6, 64
        assert skeleton_size_bound(n, D) < n * (D / math.e) + 10 * n * math.log(D)

    def test_size_bound_requires_d4(self):
        with pytest.raises(ValueError):
            skeleton_size_bound(100, 3)

    def test_distortion_bound_decreases_with_d(self):
        assert skeleton_distortion_bound(10**6, 16) < skeleton_distortion_bound(
            10**6, 4
        )

    def test_distortion_bound_scales_with_inverse_eps(self):
        assert skeleton_distortion_bound(1000, 4, eps=0.5) == pytest.approx(
            2 * skeleton_distortion_bound(1000, 4, eps=1.0)
        )

    def test_time_bound_at_least_log(self):
        assert skeleton_time_bound(10**6, 4, 1.0) >= math.log2(10**6)


class TestFibonacci:
    def test_fib_values(self):
        assert [fib(k) for k in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]

    def test_fib_rejects_negative(self):
        with pytest.raises(ValueError):
            fib(-1)

    @given(st.integers(1, 30))
    def test_golden_identity(self, k):
        # phi F_k + 1 > F_{k+1} — the only Fibonacci property Lemma 8 uses.
        assert PHI * fib(k) + 1 > fib(k + 1)

    def test_order_max_grows(self):
        assert fibonacci_spanner_order_max(2**32) >= fibonacci_spanner_order_max(
            2**8
        )

    def test_golden_ratio_exponent(self):
        # o -> infinity drives the size exponent to 0.
        assert golden_ratio_exponent(8) < golden_ratio_exponent(3) < 1


class TestSamplingProbabilities:
    def test_monotone_decreasing(self):
        qs = fib_sampling_probabilities(10**5, 5, 10)
        assert all(q1 >= q2 for q1, q2 in zip(qs, qs[1:]))

    def test_within_unit_interval(self):
        qs = fib_sampling_probabilities(10**4, 4, 8)
        assert all(0 < q <= 1 for q in qs)

    def test_first_probability_formula(self):
        # q_1 = n^{-alpha} ell^{-phi} with f_1 = g_1 = 1, h_1 = 0.
        n, o, ell = 10**6, 4, 9
        alpha = golden_ratio_exponent(o)
        q1 = fib_sampling_probabilities(n, o, ell)[0]
        assert q1 == pytest.approx(n ** (-alpha) * ell ** (-PHI))

    def test_validation(self):
        with pytest.raises(ValueError):
            fib_sampling_probabilities(100, 0, 5)
        with pytest.raises(ValueError):
            fib_sampling_probabilities(100, 2, 1)

    def test_size_bound_monotone_in_order(self):
        # Higher order => sparser (smaller n-exponent term dominates).
        n = 10**9
        assert fibonacci_size_bound(n, 6, 10) < fibonacci_size_bound(n, 2, 10)


class TestLemma9And10:
    def test_base_cases(self):
        C, I = lemma9_recurrences(5, 1)
        assert I == [1, 6]
        assert C == [1, 7]

    @given(st.integers(1, 12), st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_dominate_recurrences(self, ell, i_max):
        C, I = lemma9_recurrences(ell, i_max)
        for i in range(i_max + 1):
            assert I[i] <= lemma10_i_bound(ell, i) + 1e-6
            assert C[i] <= lemma10_c_bound(ell, i) + 1e-6

    def test_closed_forms_are_tight_for_ell1(self):
        C, I = lemma9_recurrences(1, 8)
        for i in range(9):
            # Lemma 10 claims I^i_1 = (2^{i+2} - 1 or 2)/3 exactly.
            assert I[i] == (2 ** (i + 2) - (1 if i % 2 == 0 else 2)) / 3
            assert C[i] == 2 ** (i + 1) - 1

    def test_c_over_ell_power_tends_to_three(self):
        # The third distortion stage: C^i_ell / ell^i -> ~3 for large ell.
        ell = 50
        C, _ = lemma9_recurrences(ell, 6)
        ratio = C[6] / ell**6
        assert 1 < ratio < 3.2


class TestTheorem7Bound:
    def test_stage_one(self):
        assert theorem7_distortion_bound(1, 4, 0.5) == 2**5

    def test_stage_two_at_2_to_o(self):
        o = 4
        assert theorem7_distortion_bound(2**o, o, 0.5) <= 3 * (o + 1)

    def test_stage_three(self):
        o = 3
        bound = theorem7_distortion_bound(5**o, o, 0.5)
        assert bound <= 3 + (6 * 5 - 2) / (5 * 3)

    def test_stage_four_tends_to_one(self):
        o = 2
        d = (3 * o / 0.25) ** o * 50
        assert theorem7_distortion_bound(int(d), o, 0.25) < 1.3

    def test_monotone_nonincreasing_in_distance(self):
        o, eps = 3, 0.5
        values = [
            theorem7_distortion_bound(d, o, eps)
            for d in (1, 2**o, 3**o, 5**o, 10**o, 100**o)
        ]
        assert values == sorted(values, reverse=True)

    def test_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            theorem7_distortion_bound(0, 3, 0.5)


class TestLowerBoundPredictions:
    def test_theorem3_stretch_grows_with_distance(self):
        near = theorem3_expected_stretch(50, tau=2, c=2, mu=100)
        far = theorem3_expected_stretch(500, tau=2, c=2, mu=100)
        assert far - 500 > near - 50

    def test_theorem3_vacuous_for_short_distances(self):
        d = 10  # below 3 tau + 11
        assert theorem3_expected_stretch(d, tau=5, c=2, mu=10) <= d

    def test_theorem5_time_bound_shrinks_with_beta(self):
        assert theorem5_time_lower_bound(10**6, 0.1, 100) < (
            theorem5_time_lower_bound(10**6, 0.1, 4)
        )

    def test_theorem6_time_bound_grows_with_eps(self):
        assert theorem6_time_lower_bound(10**6, 0.1, 0.9) > (
            theorem6_time_lower_bound(10**6, 0.1, 0.3)
        )

    def test_discard_probability(self):
        assert critical_edge_discard_probability(2, 10) == pytest.approx(
            1 - 0.5 - 0.05
        )

    def test_gamma_constant(self):
        assert GAMMA == pytest.approx(math.log(2) - 1 / math.e)
