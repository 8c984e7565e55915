"""Continuous burst mining with a durable, queryable pattern store.

The fleet-scale version of the paper's Grab case study: per-node
ledgers derived from the network's edge columns
(:func:`~repro.mining.prefilter.node_ledgers`), a cheap statistical
pre-filter (:mod:`repro.mining.prefilter` — temporal
concentration, Kleinberg burst states), δ-BFlow
confirmation through the multi-query planner, and content-addressed
persistence (:mod:`repro.mining.store`).  See ``docs/mining.md``.
"""

from repro.mining.backend import MiningBackendError, mining_bfq
from repro.mining.pipeline import (
    PERSIST_MODES,
    FunnelStats,
    MiningConfig,
    MiningPipeline,
    ScanOutcome,
    build_record,
    flag_entries,
    persist_entries,
)
from repro.mining.prefilter import (
    NodeBurstScore,
    NodeIntensity,
    PairCandidate,
    node_intensities,
    node_ledgers,
    rank_candidates,
    score_ledgers,
    score_nodes,
)
from repro.mining.stats import burstiness, kleinberg_states, modified_z_score
from repro.mining.store import (
    PatternRecord,
    PatternStore,
    canonical_evidence,
    pattern_hash,
    pattern_id_for,
)

__all__ = [
    "FunnelStats",
    "MiningBackendError",
    "MiningConfig",
    "MiningPipeline",
    "NodeBurstScore",
    "NodeIntensity",
    "PairCandidate",
    "PatternRecord",
    "PatternStore",
    "PERSIST_MODES",
    "ScanOutcome",
    "build_record",
    "burstiness",
    "canonical_evidence",
    "flag_entries",
    "kleinberg_states",
    "mining_bfq",
    "modified_z_score",
    "node_intensities",
    "node_ledgers",
    "pattern_hash",
    "pattern_id_for",
    "persist_entries",
    "rank_candidates",
    "score_ledgers",
    "score_nodes",
]
