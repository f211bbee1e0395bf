"""The X^t_p recurrence of Lemma 6 (the corrected Baswana–Sen analysis).

``X^t_p`` is the maximum expected number of spanner edges a single vertex
contributes over ``t`` calls to ``Expand`` with sampling probability ``p``,
against an adversary who chooses how many live clusters the vertex touches
at each call.  The paper proves

    X^t_p <= p^{-1} (ln(t + 1) - gamma) + t,   gamma = ln 2 - 1/e,

correcting Baswana–Sen's claimed O(kn + n^{1+1/k}) size to
O(kn + log k * n^{1+1/k}).  Experiment E10 validates the recurrence, the
closed form, and a Monte-Carlo simulation against each other.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from repro.core.theory import GAMMA
from repro.util.rng import SeedLike, ensure_rng


def x_tp(p: float, t: int, q_max: Optional[int] = None) -> float:
    """Exact X^t_p by dynamic programming over the recurrence (Eq. 2):

    X^t_p = max_{q >= 0} [ X^{t-1}_p + (1-p) + (q - 1 - X^{t-1}_p)(1-p)^{q+1} ]

    The maximizing q is about p^{-1} + X^{t-1}_p + 1 (the paper takes the
    derivative), so scanning q up to a few multiples of that is exact.
    """
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    if t < 0:
        raise ValueError("t must be >= 0")
    x = 0.0
    one_minus_p = 1.0 - p
    for _ in range(t):
        cap = q_max if q_max is not None else int(4 * (1 / p + x + 2)) + 4
        best = 0.0
        factor = one_minus_p  # (1-p)^{q+1} for q = 0
        for q in range(cap + 1):
            value = x + one_minus_p + (q - 1 - x) * factor
            if value > best:
                best = value
            factor *= one_minus_p
        x = best
    return x


def x_tp_closed_form(p: float, t: int) -> float:
    """Lemma 6's closed-form bound p^{-1}(ln(t+1) - gamma) + t."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    return (math.log(t + 1) - GAMMA) / p + t


def worst_case_q_schedule(p: float, t: int) -> List[int]:
    """The adversary's (approximately) optimal q_1 .. q_t sequence.

    At step i (with X^{t-i}_p remaining expectation x) the maximizer is
    q ~= p^{-1} + x + 1; we recompute x backwards and return the schedule
    front-to-back as the Monte-Carlo simulation consumes it.
    """
    xs = [0.0]
    for i in range(1, t + 1):
        xs.append(x_tp(p, i))
    schedule = []
    for i in range(t):
        remaining = xs[t - i - 1]
        schedule.append(max(0, round(1 / p + remaining + 1)))
    return schedule


def monte_carlo_vertex_contribution(
    p: float,
    q_schedule: Sequence[int],
    trials: int = 1000,
    seed: SeedLike = None,
) -> float:
    """Simulate E[Y_p(q_1, ..., q_t)] (Lemma 6's vertex contribution).

    Per call: the vertex's own cluster is sampled with probability ``p``
    (contributes 0, stays alive); otherwise if any of the ``q`` adjacent
    clusters is sampled it contributes 1 edge and stays alive; otherwise
    it contributes ``q`` edges and dies.
    """
    rng = ensure_rng(seed)
    total = 0
    for _ in range(trials):
        for q in q_schedule:
            if rng.random() < p:  # own cluster sampled
                continue
            neighbor_sampled = any(rng.random() < p for _ in range(q))
            if neighbor_sampled:
                total += 1
                continue
            total += q
            break  # vertex dies
    return total / trials
