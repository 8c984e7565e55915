"""Baselines: brute force, external solvers, and related-work contrasts."""

from repro.baselines.naive import naive_bfq
from repro.baselines.networkx_backend import (
    networkx_bfq,
    networkx_maxflow_value,
    to_networkx,
)
from repro.baselines.temporal_maxflow import (
    TemporalMaxflowResult,
    greedy_transfer_flow,
    temporal_maxflow,
)

__all__ = [
    "naive_bfq",
    "networkx_bfq",
    "networkx_maxflow_value",
    "to_networkx",
    "TemporalMaxflowResult",
    "temporal_maxflow",
    "greedy_transfer_flow",
]
