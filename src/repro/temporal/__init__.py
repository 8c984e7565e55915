"""Temporal flow network substrate.

Everything the delta-BFlow algorithms need to represent, validate, load and
inspect temporal flow networks (Section 3 of the paper).
"""

from repro.temporal.builder import TemporalFlowNetworkBuilder, TimestampCodec
from repro.temporal.edge import NodeId, TemporalEdge, Timestamp
from repro.temporal.flow import TemporalFlow, validate_temporal_flow
from repro.temporal.io import load_edge_list, load_jsonl, save_edge_list, save_jsonl
from repro.temporal.network import TemporalFlowNetwork
from repro.temporal.reachability import (
    earliest_arrival,
    is_temporally_reachable,
    min_temporal_hops,
    reachable_set,
)
from repro.temporal.stats import NetworkStats, format_stats_table, network_stats

__all__ = [
    "NodeId",
    "Timestamp",
    "TemporalEdge",
    "TemporalFlowNetwork",
    "TemporalFlowNetworkBuilder",
    "TimestampCodec",
    "TemporalFlow",
    "validate_temporal_flow",
    "load_edge_list",
    "load_jsonl",
    "save_edge_list",
    "save_jsonl",
    "earliest_arrival",
    "is_temporally_reachable",
    "min_temporal_hops",
    "reachable_set",
    "NetworkStats",
    "network_stats",
    "format_stats_table",
]
