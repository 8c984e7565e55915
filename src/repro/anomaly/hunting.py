"""Suspect-free burst hunting.

The paper's case study starts from labelled suspects.  In practice
analysts often have *no* labels — they need candidate (source, sink)
pairs before any delta-BFlow query can run.  Exhaustively scanning all
``|V|^2`` pairs is hopeless, so this module implements the natural
two-stage funnel:

1. **cheap per-node screening** — score every node by how *temporally
   concentrated* its transfer volume is (the share of its total volume
   that falls inside its busiest window of a given length).  Nodes that
   move most of their money in one short window are burst candidates;
   steady payers/merchants score low.
2. **expensive confirmation** — run the full delta-BFlow detector
   (:class:`repro.anomaly.detector.BurstDetector`) only over the
   top-scoring emitters x collectors.

The screening stage is the *same implementation* the mining subsystem
uses: :class:`NodeBurstScore` and :func:`score_nodes` are re-exported
from :mod:`repro.mining.prefilter`, which extends them with Kleinberg
burst states for the continuous pipeline
(:class:`repro.mining.MiningPipeline`).  Hunting remains the one-shot,
in-memory flavour of that funnel.

The funnel is a heuristic (screening can miss multi-hop-only bursts whose
endpoints look individually calm), which the docstrings state plainly;
the tests exercise both the hit and the miss case.
"""

from __future__ import annotations

from repro.anomaly.detector import BurstDetector, ScanReport
from repro.exceptions import InvalidQueryError
from repro.mining.prefilter import (  # noqa: F401 - canonical home; re-exported
    NodeBurstScore,
    _peak_window,
    score_nodes,
)
from repro.temporal.network import TemporalFlowNetwork

__all__ = ["NodeBurstScore", "hunt_bursts", "score_nodes"]


def hunt_bursts(
    network: TemporalFlowNetwork,
    *,
    delta: int,
    top_sources: int = 5,
    top_sinks: int = 5,
    min_volume: float = 0.0,
) -> ScanReport:
    """The full funnel: screen nodes, confirm with delta-BFlow queries.

    Scans the top ``top_sources`` emitters against the top ``top_sinks``
    collectors (by concentration score, window length = ``delta``) through
    the ordinary :class:`BurstDetector`, so the returned
    :class:`ScanReport` has the same flagging semantics as a labelled
    case-study scan.  A screen of fewer than one node per side raises
    :class:`~repro.exceptions.InvalidQueryError`.
    """
    if top_sources < 1 or top_sinks < 1:
        raise InvalidQueryError(
            f"top_sources/top_sinks must be >= 1, "
            f"got {top_sources}/{top_sinks}"
        )
    emitters = score_nodes(
        network, window=delta, direction="out", min_volume=min_volume
    )
    collectors = score_nodes(
        network, window=delta, direction="in", min_volume=min_volume
    )
    sources = [score.node for score in emitters[:top_sources]]
    sinks = [score.node for score in collectors[:top_sinks]]
    return BurstDetector(network).scan(sources, sinks, [delta])
