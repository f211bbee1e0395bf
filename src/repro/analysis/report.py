"""Programmatic Fig. 1 report generation.

``fig1_report(graph)`` runs every implemented construction on one host
and returns the measured comparison rows — the same data bench E1
renders, packaged for library users (and the ``python -m repro`` CLI).

``phase_budget_report(events)`` turns a recorded trace (see
:mod:`repro.obs`) into the per-phase round/message accounting the
paper's theorems are stated at, annotated with each phase's analytic
round budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List

from repro.analysis.tables import format_table
from repro.graphs.graph import Graph
from repro.util.rng import SeedLike, ensure_rng


@dataclass
class AlgorithmRow:
    """One measured Fig. 1 row."""

    name: str
    size: int
    size_per_n: float
    max_stretch: float
    mean_stretch: float
    rounds: str
    max_message_words: str

    def as_tuple(self):
        return (
            self.name, self.size, round(self.size_per_n, 2),
            self.max_stretch, round(self.mean_stretch, 3),
            self.rounds, self.max_message_words,
        )


def fig1_report(
    graph: Graph,
    seed: SeedLike = None,
    num_sources: int = 30,
    include_distributed: bool = True,
) -> List[AlgorithmRow]:
    """Measure every implemented construction on ``graph``.

    ``include_distributed=False`` runs only the sequential builders
    (faster; round columns become analytic).
    """
    rng = ensure_rng(seed)

    def measure(name, spanner, rounds, width):
        stats = spanner.stretch(num_sources=num_sources, seed=rng.random())
        return AlgorithmRow(
            name=name,
            size=spanner.size,
            size_per_n=spanner.size / max(1, graph.n),
            max_stretch=stats.max_multiplicative,
            mean_stretch=stats.mean_multiplicative,
            rounds=str(rounds),
            max_message_words=str(width),
        )

    rows: List[AlgorithmRow] = []
    if include_distributed:
        from repro.distributed import (
            distributed_baswana_sen,
            distributed_fibonacci_spanner,
            distributed_skeleton,
        )

        sk = distributed_skeleton(graph, D=4, seed=rng.getrandbits(32))
        st = sk.metadata["network_stats"]
        rows.append(measure("skeleton (Thm 2)", sk,
                            sk.metadata["budgeted_rounds"],
                            st.max_message_words))
        fib = distributed_fibonacci_spanner(
            graph, order=2, eps=0.5, seed=rng.getrandbits(32)
        )
        st = fib.metadata["network_stats"]
        rows.append(measure("fibonacci (Thm 8)", fib, st.rounds,
                            st.max_message_words))
        bs = distributed_baswana_sen(graph, k=3, seed=rng.getrandbits(32))
        st = bs.metadata["network_stats"]
        rows.append(measure("baswana-sen k=3", bs, st.rounds,
                            st.max_message_words))
    else:
        from repro.baselines import baswana_sen_spanner
        from repro.core import build_fibonacci_spanner, build_skeleton

        rows.append(measure(
            "skeleton (Thm 2)",
            build_skeleton(graph, D=4, seed=rng.getrandbits(32)),
            "O(t + log n)", "O(log^eps n)",
        ))
        rows.append(measure(
            "fibonacci (Thm 8)",
            build_fibonacci_spanner(graph, order=2,
                                    seed=rng.getrandbits(32)),
            "O(ell^(o+t))", "O(n^(1/t))",
        ))
        rows.append(measure(
            "baswana-sen k=3",
            baswana_sen_spanner(graph, 3, seed=rng.getrandbits(32)),
            "O(k^2)", "1",
        ))

    from repro.baselines import (
        additive2_spanner,
        bfs_forest,
        elkin_zhang_spanner,
        girth_skeleton,
    )
    from repro.baselines.girth_skeleton import required_neighborhood_radius

    rows.append(measure(
        "elkin-zhang (1+eps,beta)",
        elkin_zhang_spanner(graph, eps=0.5, levels=3,
                            seed=rng.getrandbits(32)),
        "O(beta)", "O(n^(1/t))",
    ))
    rows.append(measure(
        "girth skeleton [18]", girth_skeleton(graph),
        f"~{required_neighborhood_radius(graph.n)} survey", "unbounded",
    ))
    rows.append(measure(
        "additive-2 [3]",
        additive2_spanner(graph, seed=rng.getrandbits(32)),
        "Omega(n^(1/4)) (Thm 5)", "-",
    ))
    rows.append(measure("bfs forest", bfs_forest(graph), "O(diam)", "-"))
    return rows


def render_fig1(rows: List[AlgorithmRow], title: str = "") -> str:
    """Render report rows as the Fig. 1-style ASCII table."""
    return format_table(
        ["algorithm", "size", "size/n", "max stretch", "mean stretch",
         "rounds", "max msg words"],
        [r.as_tuple() for r in rows],
        title=title,
    )


# ----------------------------------------------------------------------
# Per-phase round budgets (from traces)
# ----------------------------------------------------------------------

#: analytic per-call round budget of each (protocol, phase family); the
#: phase numbers are stripped before lookup (:func:`_phase_family`).
#: These are the bounds the theorems charge each phase with — the report
#: puts the measured rounds next to them.  In the deterministic rows
#: ``depth = r_i + 1``.
PHASE_ROUND_BUDGETS: Dict[Any, str] = {
    ("skeleton", "exchange"): "2",
    ("skeleton", "converge"): "r_i + pipe + 2",
    ("skeleton", "decide"): "r_i + pipe + 2",
    ("skeleton", "contract"): "2",
    ("baswana_sen", "phase"): "2",
    ("baswana_sen_weighted", "phase"): "2",
    ("additive", "exchange"): "3",
    ("additive", "trees"): "O(diam + |D|/W)",
    ("fibonacci", "forest"): "ell^(i-1)",
    ("fibonacci", "cutoff"): "ell^i + 1",
    ("fibonacci", "ball"): "ell^i",
    ("fibonacci", "detect"): "ell^i",
    ("fibonacci", "fallback"): "ell^i",
    ("fibonacci", "retrace"): "ell^i",
    ("survey", "survey"): "r",
    ("deterministic", "sp.exchange"): "2",
    ("deterministic", "sp.survey"): "depth + t_i + 4",
    ("deterministic", "sp.rule.down"): "depth + 2",
    ("deterministic", "sp.rule.x"): "2",
    ("deterministic", "sp.rule.up"): "depth + 2",
    ("deterministic", "sp.fin.down"): "depth + 2",
    ("deterministic", "sp.res_x"): "2",
    ("deterministic", "sp.res_up"): "depth + 3",
    ("deterministic", "sp.res_join"): "2*depth + 5",
    ("deterministic", "sp.res_death"): "depth + t_i + 4",
}

#: the numbers phase names embed: ``[i]`` indices, and the superphase,
#: ruling-iteration, sub-step and wave numbers glued to a name part.
_PHASE_NUMBER = re.compile(r"\[\d+\]|(?<=[a-z])\d+(?=\.|$)")
#: the ruling iteration's sub-step tag (``m1``/``m2``/``ctr``/``d1``),
#: whose three steps share one budget per tag.
_RULE_STEP = re.compile(r"(?<=\brule\.)[a-z]+\.")


@dataclass
class PhaseBudgetRow:
    """Measured cost of one (protocol, phase) next to its analytic budget."""

    protocol: str
    phase: str
    calls: int
    rounds: int
    messages: int
    words: int
    round_share: float
    budget: str

    def as_tuple(self):
        return (
            self.protocol, self.phase, self.calls, self.rounds,
            self.messages, self.words, f"{100 * self.round_share:.1f}%",
            self.budget,
        )


def _phase_family(name: str) -> str:
    """``forest[2]`` -> ``forest``, ``sp3.rule2.ctr.up`` -> ``sp.rule.up``,
    ``sp0.res_join1`` -> ``sp.res_join``."""
    return _RULE_STEP.sub("", _PHASE_NUMBER.sub("", name))


def phase_budget_report(
    events: Iterable[Dict[str, Any]],
) -> List[PhaseBudgetRow]:
    """Per-phase accounting of a recorded trace.

    ``events`` is a trace event list (from
    :class:`repro.obs.TraceRecorder` or :func:`repro.obs.load_events`);
    returns one row per (protocol, phase) with the measured
    rounds/messages/words, the phase's share of all measured rounds and
    its analytic per-call round budget from :data:`PHASE_ROUND_BUDGETS`.
    """
    from repro.obs.replay import summarize

    summary = summarize(events)
    total_rounds = max(1, sum(p.rounds for p in summary.phases))
    return [
        PhaseBudgetRow(
            protocol=p.protocol,
            phase=p.phase,
            calls=p.calls,
            rounds=p.rounds,
            messages=p.messages,
            words=p.words,
            round_share=p.rounds / total_rounds,
            budget=PHASE_ROUND_BUDGETS.get(
                (p.protocol, _phase_family(p.phase)), "-"
            ),
        )
        for p in summary.phases
    ]


def render_phase_budget(rows: List[PhaseBudgetRow], title: str = "") -> str:
    """Render :func:`phase_budget_report` rows as an ASCII table."""
    return format_table(
        ["protocol", "phase", "calls", "rounds", "msgs", "words",
         "share", "budget/call"],
        [r.as_tuple() for r in rows],
        title=title,
    )
