"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Any

import pytest

from repro.graphs import (
    Graph,
    chain_of_cliques,
    complete,
    cycle,
    erdos_renyi_gnp,
    grid_2d,
    hypercube,
    path,
)
from repro.obs import PROTOCOL_SPECS


def comparable_result(protocol: str, result: Any) -> Any:
    """A ``run_traced`` result as a comparable value: the sorted edges
    of a spanner, the survey's ``known`` edge map as it is."""
    if PROTOCOL_SPECS[protocol].spanner:
        return sorted(result.edges)
    return result


@pytest.fixture
def small_er_graph() -> Graph:
    """A connected-ish sparse random graph (seeded, deterministic)."""
    return erdos_renyi_gnp(120, 0.06, seed=7)


@pytest.fixture
def medium_er_graph() -> Graph:
    return erdos_renyi_gnp(300, 0.04, seed=11)


@pytest.fixture
def grid_graph() -> Graph:
    return grid_2d(12, 12)


@pytest.fixture
def long_path() -> Graph:
    return path(50)


@pytest.fixture
def clique_chain() -> Graph:
    return chain_of_cliques(6, 5, link_length=3)


@pytest.fixture(
    params=["er", "grid", "cycle", "hypercube", "clique-chain", "complete"]
)
def any_graph(request) -> Graph:
    """A varied family of host graphs for guarantee tests."""
    return {
        "er": erdos_renyi_gnp(90, 0.08, seed=3),
        "grid": grid_2d(8, 8),
        "cycle": cycle(40),
        "hypercube": hypercube(5),
        "clique-chain": chain_of_cliques(4, 4, link_length=2),
        "complete": complete(15),
    }[request.param]
