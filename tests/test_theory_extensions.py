"""Tests for the Corollary 2 / Elkin–Zhang closed-form additions."""

from __future__ import annotations

import math

import pytest

from repro.core.theory import (
    PHI,
    corollary2_betas,
    elkin_zhang_beta,
    fibonacci_spanner_order_max,
)


class TestCorollary2Betas:
    def test_returns_triple(self):
        b1, b2, b3 = corollary2_betas(10**6, eps=0.5, t=2)
        assert b1 > 0 and b2 > 0 and b3 > 0

    def test_beta1_grows_with_t(self):
        assert corollary2_betas(10**6, 0.5, 4)[0] > corollary2_betas(
            10**6, 0.5, 2
        )[0]

    def test_beta2_grows_with_ell_prime(self):
        n = 10**6
        assert corollary2_betas(n, 0.5, 2, ell_prime=5)[1] > (
            corollary2_betas(n, 0.5, 2, ell_prime=3)[1]
        )

    def test_beta3_shrinks_with_eps(self):
        n = 10**6
        assert corollary2_betas(n, 1.0, 2)[2] < corollary2_betas(
            n, 0.25, 2
        )[2]

    def test_beta1_formula(self):
        n, t = 2**32, 3
        b1, _, _ = corollary2_betas(n, 0.5, t)
        assert b1 == pytest.approx(2**t * 32 ** math.log(2, PHI))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            corollary2_betas(2, 0.5, 2)


class TestElkinZhangBeta:
    def test_positive_and_growing_in_t(self):
        n = 10**6
        assert elkin_zhang_beta(n, 0.5, 3) > elkin_zhang_beta(n, 0.5, 2) > 0

    def test_shrinks_with_eps(self):
        n = 10**6
        assert elkin_zhang_beta(n, 1.0, 2) < elkin_zhang_beta(n, 0.1, 2)

    def test_paper_comparison_fibonacci_wins_asymptotically(self):
        # Sect. 1.2: the Fibonacci beta (t-aware Corollary 2 beta_3)
        # "compares favorably" with Elkin-Zhang's.  At large n and equal
        # (eps, t) the EZ expression dominates.
        n, eps, t = 2**64, 0.5, 2
        fib_beta3 = corollary2_betas(n, eps, t)[2]
        ez_beta = elkin_zhang_beta(n, eps, t)
        assert fib_beta3 < ez_beta

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            elkin_zhang_beta(8, 0.5, 2)


class TestOrderMax:
    def test_known_regimes(self):
        # log_phi log2(n): n = 2^16 -> log2 = 16 -> log_phi 16 ~ 5.76.
        assert fibonacci_spanner_order_max(2**16) == 5
        assert fibonacci_spanner_order_max(2**64) == 8
