"""The paper's core contribution: delta-BFlow queries and their solutions."""

from repro.core.bfq import bfq
from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.engine import (
    ALGORITHMS,
    DEFAULT_ALGORITHM,
    find_bursting_flow,
    get_algorithm,
)
from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.profile import (
    PhaseBreakdown,
    ProfilePoint,
    density_profile,
    suggest_delta,
)
from repro.core.skeleton import WindowSkeleton
from repro.core.intervals import CandidatePlan, enumerate_candidates, is_core_interval
from repro.core.planner import (
    BurstEntry,
    PlannerReport,
    QueryGroup,
    WindowMemo,
    answer_planned,
    group_queries,
    planner_bfq,
    top_k_bursts,
)
from repro.core.query import (
    BurstingFlowQuery,
    BurstingFlowResult,
    IntervalSample,
    QueryStats,
    merge_query_stats,
)
from repro.core.record import (
    DENSITY_EPSILON,
    PRUNING_EPSILON,
    BestRecord,
    should_prune,
)
from repro.core.trails import (
    FlowTrail,
    TrailHop,
    TrailReport,
    bursting_flow_trails,
    trails_for_interval,
)
from repro.core.transform import (
    TransformedNetwork,
    build_transformed_network,
    reachable_edges,
)

__all__ = [
    "bfq",
    "answer_planned",
    "group_queries",
    "planner_bfq",
    "top_k_bursts",
    "BurstEntry",
    "PlannerReport",
    "QueryGroup",
    "WindowMemo",
    "merge_query_stats",
    "density_profile",
    "suggest_delta",
    "PhaseBreakdown",
    "ProfilePoint",
    "WindowSkeleton",
    "bursting_flow_trails",
    "trails_for_interval",
    "FlowTrail",
    "TrailHop",
    "TrailReport",
    "bfq_plus",
    "bfq_star",
    "find_bursting_flow",
    "get_algorithm",
    "ALGORITHMS",
    "DEFAULT_ALGORITHM",
    "BurstingFlowQuery",
    "BurstingFlowResult",
    "QueryStats",
    "IntervalSample",
    "BestRecord",
    "should_prune",
    "DENSITY_EPSILON",
    "PRUNING_EPSILON",
    "CandidatePlan",
    "enumerate_candidates",
    "is_core_interval",
    "TransformedNetwork",
    "build_transformed_network",
    "reachable_edges",
    "IncrementalTransformedNetwork",
]
