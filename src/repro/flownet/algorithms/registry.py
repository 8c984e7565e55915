"""Name-based registry of Maxflow solvers.

The delta-BFlow solutions are parameterised by a Maxflow solver ("other
augmenting path-based Maxflow algorithms can be also applied in our
solutions", Section 3.1).  The registry gives benches, tests and BFQ's
``solver=`` a single place to resolve solver names.  The engine itself
(BFQ+/BFQ* and BFQ's compiled windows) always runs the persistent arena
Dinic (:mod:`repro.flownet.algorithms.dinic_flat_persistent`).
"""

from __future__ import annotations

from typing import Callable

from repro.exceptions import SolverError
from repro.flownet.algorithms.base import MaxflowRun, MaxflowSolver
from repro.flownet.algorithms.capacity_scaling import capacity_scaling
from repro.flownet.algorithms.dinic import dinic
from repro.flownet.algorithms.dinic_flat import dinic_flat
from repro.flownet.algorithms.dinic_flat_persistent import dinic_flat_persistent
from repro.flownet.algorithms.edmonds_karp import edmonds_karp
from repro.flownet.algorithms.ford_fulkerson import ford_fulkerson
from repro.flownet.algorithms.lp import lp_maxflow
from repro.flownet.algorithms.push_relabel import push_relabel
from repro.flownet.network import FlowNetwork

SOLVERS: dict[str, MaxflowSolver] = {
    "dinic": dinic,
    "dinic-flat": dinic_flat,
    "dinic-flat-persistent": dinic_flat_persistent,
    "edmonds-karp": edmonds_karp,
    "ford-fulkerson": ford_fulkerson,
    "capacity-scaling": capacity_scaling,
    "push-relabel": push_relabel,
    "lp": lp_maxflow,
}

#: Solvers that mutate the residual state in place and can be re-invoked to
#: find only the missing augmenting paths — a requirement of BFQ+/BFQ*.
RESUMABLE_SOLVERS: frozenset[str] = frozenset(
    {
        "dinic",
        "dinic-flat",
        "dinic-flat-persistent",
        "edmonds-karp",
        "ford-fulkerson",
        "capacity-scaling",
    }
)


def get_solver(name: str) -> MaxflowSolver:
    """Resolve a solver by name.

    Raises:
        SolverError: for unknown names (message lists the known ones).
    """
    try:
        return SOLVERS[name]
    except KeyError:
        known = ", ".join(sorted(SOLVERS))
        raise SolverError(f"unknown maxflow solver {name!r}; known: {known}") from None


def solve_max_flow(
    network: FlowNetwork,
    source: int,
    sink: int,
    *,
    algorithm: str = "dinic",
) -> MaxflowRun:
    """Run the named solver on (network, source, sink)."""
    solver: Callable[[FlowNetwork, int, int], MaxflowRun] = get_solver(algorithm)
    return solver(network, source, sink)
