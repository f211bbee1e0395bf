"""Closed-form theory bounds (from :mod:`repro.core.theory`), the X^t_p
recurrence, and table formatting."""

from repro.core.theory import (
    GAMMA,
    PHI,
    fib,
    fib_sampling_probabilities,
    fibonacci_size_bound,
    fibonacci_spanner_order_max,
    golden_ratio_exponent,
    lemma9_recurrences,
    lemma10_c_bound,
    lemma10_i_bound,
    log_star,
    s_sequence,
    skeleton_distortion_bound,
    skeleton_size_bound,
    theorem7_distortion_bound,
)
from repro.analysis.xtp import (
    monte_carlo_vertex_contribution,
    x_tp,
    x_tp_closed_form,
)
from repro.analysis.tables import format_table
from repro.analysis.report import (
    PhaseBudgetRow,
    phase_budget_report,
    render_phase_budget,
)

__all__ = [
    "GAMMA",
    "PHI",
    "fib",
    "fib_sampling_probabilities",
    "fibonacci_size_bound",
    "fibonacci_spanner_order_max",
    "golden_ratio_exponent",
    "lemma9_recurrences",
    "lemma10_c_bound",
    "lemma10_i_bound",
    "log_star",
    "s_sequence",
    "skeleton_distortion_bound",
    "skeleton_size_bound",
    "theorem7_distortion_bound",
    "monte_carlo_vertex_contribution",
    "x_tp",
    "x_tp_closed_form",
    "format_table",
    "PhaseBudgetRow",
    "phase_budget_report",
    "render_phase_budget",
]
