"""Classical flow-network substrate: residual graphs and Maxflow solvers."""

from repro.flownet.algorithms import (
    capacity_scaling,
    RESUMABLE_SOLVERS,
    SOLVERS,
    MaxflowRun,
    dinic,
    dinic_flat,
    dinic_flat_persistent,
    edmonds_karp,
    ford_fulkerson,
    get_solver,
    lp_maxflow,
    push_relabel,
    solve_max_flow,
)
from repro.flownet.mincut import MinCut, certify_maxflow, min_cut
from repro.flownet.network import Arc, EdgeKind, EdgeRef, FlowNetwork
from repro.flownet.residual import (
    ResidualArena,
    decompose_into_paths,
    extract_flow,
    flow_value_at,
    validate_classical_flow,
)

__all__ = [
    "Arc",
    "EdgeKind",
    "EdgeRef",
    "FlowNetwork",
    "ResidualArena",
    "MaxflowRun",
    "MinCut",
    "min_cut",
    "certify_maxflow",
    "dinic",
    "dinic_flat",
    "dinic_flat_persistent",
    "capacity_scaling",
    "edmonds_karp",
    "ford_fulkerson",
    "push_relabel",
    "lp_maxflow",
    "SOLVERS",
    "RESUMABLE_SOLVERS",
    "get_solver",
    "solve_max_flow",
    "extract_flow",
    "flow_value_at",
    "validate_classical_flow",
    "decompose_into_paths",
]
