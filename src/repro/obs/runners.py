"""The protocol registry and one-call traced runs of its protocols.

:data:`PROTOCOL_SPECS` is the one table of the distributed protocols:
per protocol its default parameters, distributed driver, fuzz-parameter
sampler and sequential reference.  The trace CLI, the fuzzer, the tests
and the benchmarks read it instead of keeping their own copies.

``run_traced("skeleton", graph, seed=1, obs=obs)`` normalizes the
drivers (whose signatures and return shapes differ) to a single
``(result, NetworkStats)`` pair.  The row functions import their
protocol modules on first use, so importing :mod:`repro.obs` never
drags them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.graphs.graph import Graph

__all__ = [
    "PROTOCOLS",
    "PROTOCOL_SPECS",
    "ProtocolSpec",
    "protocol_spec",
    "run_traced",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One registry row.

    ``run(graph, seed, **kwargs)`` returns ``(result, stats)``;
    ``sample(rng)`` draws the fuzzer's parameters; ``reference(graph,
    seed, **params)`` builds the sequential spanner (``None``: no
    reference); ``spanner`` is ``False`` when the result is the survey's
    ``known`` edge map rather than a spanner.
    """

    name: str
    defaults: Mapping[str, Any]
    run: Callable[..., Tuple[Any, Any]]
    sample: Callable[[Any], Dict[str, Any]]
    reference: Optional[Callable[..., Any]]
    spanner: bool = True


def _with_stats(spanner: Any) -> Tuple[Any, Any]:
    return spanner, spanner.metadata.get("network_stats")


def _run_skeleton(graph: Graph, seed: Any, **kw: Any) -> Tuple[Any, Any]:
    from repro.distributed.skeleton_protocol import distributed_skeleton

    return _with_stats(distributed_skeleton(graph, seed=seed, **kw))


def _run_baswana_sen(graph: Graph, seed: Any, **kw: Any) -> Tuple[Any, Any]:
    from repro.distributed.baswana_sen_protocol import (
        distributed_baswana_sen,
    )

    return _with_stats(distributed_baswana_sen(graph, seed=seed, **kw))


def _run_additive(graph: Graph, seed: Any, **kw: Any) -> Tuple[Any, Any]:
    from repro.distributed.additive_protocol import distributed_additive2

    return _with_stats(distributed_additive2(graph, seed=seed, **kw))


def _run_fibonacci(graph: Graph, seed: Any, **kw: Any) -> Tuple[Any, Any]:
    from repro.distributed.fibonacci_protocol import (
        distributed_fibonacci_spanner,
    )

    return _with_stats(
        distributed_fibonacci_spanner(graph, seed=seed, **kw)
    )


def _run_survey(graph: Graph, seed: Any, **kw: Any) -> Tuple[Any, Any]:
    from repro.distributed.survey_protocol import neighborhood_survey

    return neighborhood_survey(graph, **kw)  # floods deterministically


def _run_deterministic(graph: Graph, seed: Any, **kw: Any) -> Tuple[Any, Any]:
    from repro.distributed.deterministic_protocol import (
        distributed_deterministic,
    )

    return _with_stats(distributed_deterministic(graph, seed=seed, **kw))


# The sequential references.  The skeleton's shares the protocol's PRF
# (identical cluster evolution) and Fibonacci's its seed (identical
# levels); Baswana-Sen's and additive's draw their own randomness; the
# deterministic one draws none.


def _ref_skeleton(graph: Graph, seed: Any, **params: Any) -> Any:
    from repro.core.skeleton import build_skeleton
    from repro.util.rng import make_prf

    return build_skeleton(graph, prf=make_prf(seed), **params)


def _ref_baswana_sen(graph: Graph, seed: Any, **params: Any) -> Any:
    from repro.baselines.baswana_sen import baswana_sen_spanner

    return baswana_sen_spanner(graph, seed=seed, **params)


def _ref_additive(graph: Graph, seed: Any, **params: Any) -> Any:
    from repro.baselines.additive_spanner import additive2_spanner

    return additive2_spanner(graph, seed=seed, **params)


def _ref_fibonacci(graph: Graph, seed: Any, **params: Any) -> Any:
    from repro.core.fibonacci import build_fibonacci_spanner

    return build_fibonacci_spanner(graph, seed=seed, **params)


def _ref_deterministic(graph: Graph, seed: Any, **params: Any) -> Any:
    from repro.baselines.deterministic_skeleton import (
        sequential_deterministic,
    )
    from repro.spanner.spanner import Spanner

    edges, info = sequential_deterministic(graph, **params)
    return Spanner(graph, edges, info)


#: the registry, in Fig. 1 order (the deterministic skeleton last).
PROTOCOL_SPECS: Dict[str, ProtocolSpec] = {
    spec.name: spec
    for spec in (
        ProtocolSpec(
            name="skeleton",
            defaults={"D": 4, "eps": 0.5},
            run=_run_skeleton,
            sample=lambda rng: {"D": 4, "eps": 0.5},
            reference=_ref_skeleton,
        ),
        ProtocolSpec(
            name="baswana_sen",
            defaults={"k": 3},
            run=_run_baswana_sen,
            sample=lambda rng: {"k": int(rng.choice((2, 3, 4)))},
            reference=_ref_baswana_sen,
        ),
        ProtocolSpec(
            name="additive",
            defaults={"threshold": None},
            run=_run_additive,
            sample=lambda rng: {},
            reference=_ref_additive,
        ),
        ProtocolSpec(
            name="fibonacci",
            defaults={"order": 2, "eps": 0.5, "ell": None},
            run=_run_fibonacci,
            # eps-default ell (= 3o/eps + 2), so the staged Theorem 7
            # distortion oracle is exactly the theorem's claim.
            sample=lambda rng: {"order": 2, "eps": 0.5},
            reference=_ref_fibonacci,
        ),
        ProtocolSpec(
            name="survey",
            defaults={"radius": 3},
            run=_run_survey,
            sample=lambda rng: {"radius": int(rng.choice((1, 2, 3)))},
            reference=None,
            spanner=False,
        ),
        ProtocolSpec(
            name="deterministic",
            defaults={"D": 4},
            run=_run_deterministic,
            sample=lambda rng: {"D": int(rng.choice((2, 3, 4, 5)))},
            reference=_ref_deterministic,
        ),
    )
}

#: the registry's protocol names, in table order.
PROTOCOLS: Tuple[str, ...] = tuple(PROTOCOL_SPECS)


def protocol_spec(protocol: str) -> ProtocolSpec:
    """The registry row of ``protocol``; ``ValueError`` names the choices."""
    try:
        return PROTOCOL_SPECS[protocol]
    except KeyError:
        raise ValueError(
            f"unknown protocol {protocol!r}; choose from {PROTOCOLS}"
        ) from None


def run_traced(
    protocol: str,
    graph: Graph,
    seed: Any = None,
    obs: Optional[Any] = None,
    reliable: bool = False,
    fault_plan: Optional[Any] = None,
    **kwargs: Any,
) -> Tuple[Any, Any]:
    """Run one protocol under observation; returns ``(result, stats)``.

    ``kwargs`` override the protocol's registry defaults and pass
    simulator options through.  ``result`` is the protocol's natural
    output (a :class:`~repro.spanner.spanner.Spanner` for the spanner
    builders, the ``known`` edge map for ``survey``); ``stats`` is the
    aggregated :class:`~repro.distributed.simulator.NetworkStats` that
    :func:`repro.obs.replay.reconstruct_stats` must reproduce.
    """
    spec = protocol_spec(protocol)
    return spec.run(
        graph,
        seed,
        obs=obs,
        reliable=reliable,
        fault_plan=fault_plan,
        **{**spec.defaults, **kwargs},
    )
