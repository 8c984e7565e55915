"""The mining pre-filter: cheap statistical screening before δ-BFlow.

Scanning all ``|V|²`` (source, sink) pairs with the exact engine is
hopeless at fleet scale; this module ranks candidates with statistics
that cost one pass over the ledgers (:func:`node_ledgers`, one pass over
the network's edge columns):

1. **temporal concentration** (:class:`NodeBurstScore`) — the share of a
   node's transfer volume inside its busiest window; the score weights
   that share by the window's volume.  This is the screening
   :mod:`repro.anomaly.hunting` prototyped; it now lives here and
   ``hunting`` delegates to it, so there is exactly one implementation.
2. **Kleinberg burst states** — a two-state automaton over binned
   arrival *counts* (:func:`~repro.mining.stats.kleinberg_states`),
   which rewards sustained elevated activity rather than a single big
   transfer; its share of arrivals in burst bins is the node's
   burstiness.

:func:`rank_candidates` ranks nodes by :attr:`NodeIntensity.intensity`,
concentration × peak volume × (1 + burstiness), crosses the top emitters
with the top collectors, and boosts pairs whose peak windows coincide.
It decodes nodes in concentration-score order and stops once no later
node can reach the top (the intensity is at most twice the score).
The output order feeds straight into
:func:`repro.core.planner.top_k_bursts`.

The funnel is a heuristic, and its known miss is inherited from the
hunting prototype: a multi-hop-only burst whose endpoints look
individually calm (volume trickling out of the source over a long
horizon, reassembled at the sink far later) never ranks — the tests
exercise both the hit and the miss case.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from repro.exceptions import InvalidQueryError
from repro.mining.stats import burstiness, kleinberg_states
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

Ledger = list[tuple[Timestamp, float]]
Ledgers = dict[NodeId, Ledger]


def node_ledgers(network: TemporalFlowNetwork) -> tuple[Ledgers, Ledgers]:
    """Every node's ``(tau, amount)`` emission and absorption ledgers.

    One pass over :meth:`~repro.temporal.network.TemporalFlowNetwork
    .edge_columns` (timestamp-major), so each ledger comes out sorted by
    timestamp; nodes without edges have no ledger.
    """
    _, us, vs, taus, caps = network.edge_columns()
    out_ledgers: Ledgers = {}
    in_ledgers: Ledgers = {}
    for u, v, tau, capacity in zip(us, vs, taus, caps):
        entry = (tau, capacity)
        out_ledgers.setdefault(u, []).append(entry)
        in_ledgers.setdefault(v, []).append(entry)
    return out_ledgers, in_ledgers


@dataclass(frozen=True, slots=True)
class NodeBurstScore:
    """Temporal-concentration score of one node's ledger side."""

    node: NodeId
    total_volume: float
    peak_volume: float
    peak_window: tuple[Timestamp, Timestamp]

    @property
    def concentration(self) -> float:
        """Share of total volume inside the busiest window (0..1)."""
        if self.total_volume <= 0:
            return 0.0
        return self.peak_volume / self.total_volume

    @property
    def score(self) -> float:
        """Ranking score: concentrated *and* heavy beats either alone."""
        return self.concentration * self.peak_volume


@dataclass(frozen=True, slots=True)
class NodeIntensity:
    """One node's full pre-filter intensity profile."""

    base: NodeBurstScore
    #: Share of the node's arrivals inside Kleinberg burst bins (0..1).
    burstiness: float

    @property
    def node(self) -> NodeId:
        return self.base.node

    @property
    def peak_window(self) -> tuple[Timestamp, Timestamp]:
        return self.base.peak_window

    @property
    def concentration(self) -> float:
        return self.base.concentration

    @property
    def intensity(self) -> float:
        """The ranking key: concentration-weighted peak volume, boosted
        when the burst automaton confirms the activity pattern."""
        return self.base.score * (1.0 + self.burstiness)


@dataclass(frozen=True, slots=True)
class PairCandidate:
    """A ranked (source, sink) candidate for δ-BFlow confirmation."""

    source: NodeId
    sink: NodeId
    rank_score: float
    source_intensity: NodeIntensity
    sink_intensity: NodeIntensity

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.source, self.sink)

    @property
    def windows_overlap(self) -> bool:
        """Whether the emitter's and collector's peak windows intersect."""
        (a_lo, a_hi) = self.source_intensity.peak_window
        (b_lo, b_hi) = self.sink_intensity.peak_window
        return a_lo <= b_hi and b_lo <= a_hi


def _peak_window(
    entries: Ledger, window: int
) -> tuple[float, tuple[Timestamp, Timestamp]]:
    """Max volume inside any window of the given length (two pointers)."""
    best = 0.0
    best_window = (entries[0][0], entries[0][0] + window)
    running = 0.0
    left = 0
    for right in range(len(entries)):
        running += entries[right][1]
        while entries[right][0] - entries[left][0] > window:
            running -= entries[left][1]
            left += 1
        if running > best:
            best = running
            best_window = (entries[left][0], entries[left][0] + window)
    return best, best_window


def score_ledgers(
    ledgers: Mapping[NodeId, Ledger],
    *,
    window: int,
    min_volume: float = 0.0,
) -> list[NodeBurstScore]:
    """Concentration-score every ledger; sorted best first.

    Ledger entry lists are sorted in place by timestamp (idempotent).
    """
    if window < 1:
        raise InvalidQueryError(f"window must be >= 1, got {window}")
    scores = []
    for node, entries in ledgers.items():
        if not entries:
            continue
        entries.sort()
        total = sum(amount for _, amount in entries)
        if total < min_volume:
            continue
        peak, peak_window = _peak_window(entries, window)
        scores.append(
            NodeBurstScore(
                node=node,
                total_volume=total,
                peak_volume=peak,
                peak_window=peak_window,
            )
        )
    scores.sort(key=lambda s: (-s.score, str(s.node)))
    return scores


def score_nodes(
    network: TemporalFlowNetwork,
    *,
    window: int,
    direction: str = "out",
    min_volume: float = 0.0,
) -> list[NodeBurstScore]:
    """Score every node's emission (or absorption) concentration.

    Args:
        window: length of the sliding window used for the peak.
        direction: ``"out"`` scores emitters, ``"in"`` scores collectors.
        min_volume: nodes whose total volume is below this are skipped.

    Returns scores sorted by :attr:`NodeBurstScore.score`, best first.
    (This is the screening primitive ``repro.anomaly.hunting`` ships —
    its implementation lives here so the hunting funnel and the mining
    pre-filter can never drift apart.)
    """
    if direction not in ("out", "in"):
        raise InvalidQueryError(
            f"direction must be 'out' or 'in', got {direction!r}"
        )
    out_ledgers, in_ledgers = node_ledgers(network)
    ledgers = out_ledgers if direction == "out" else in_ledgers
    return score_ledgers(ledgers, window=window, min_volume=min_volume)


def node_intensities(
    ledgers: Mapping[NodeId, Ledger],
    *,
    window: int,
    min_volume: float = 0.0,
) -> list[NodeIntensity]:
    """The full intensity profile per node, sorted by intensity desc."""
    profiles = []
    for base in score_ledgers(ledgers, window=window, min_volume=min_volume):
        counts = _bin_counts(ledgers[base.node], window)
        states = kleinberg_states(counts)
        profiles.append(
            NodeIntensity(base=base, burstiness=burstiness(counts, states))
        )
    profiles.sort(key=lambda p: (-p.intensity, str(p.node)))
    return profiles


def _top_intensities(
    ledgers: Mapping[NodeId, Ledger],
    *,
    window: int,
    min_volume: float,
    count: int,
) -> list[NodeIntensity]:
    """``node_intensities(...)[:count]``, decoding as few nodes as it can.

    ``intensity = score * (1 + burstiness)`` with burstiness in [0, 1], so
    a node's intensity is at most ``2 * score``.  :func:`score_ledgers`
    yields nodes by descending score, so once ``2 * score`` falls strictly
    below the ``count``-th best intensity decoded so far, no later node can
    enter the top ``count`` (not even on a node-id tie) and the decoding
    stops.
    """
    profiles: list[NodeIntensity] = []
    best: list[float] = []  # min-heap of the top ``count`` intensities
    for base in score_ledgers(ledgers, window=window, min_volume=min_volume):
        if len(best) == count and 2.0 * base.score < best[0]:
            break
        counts = _bin_counts(ledgers[base.node], window)
        states = kleinberg_states(counts)
        profile = NodeIntensity(base=base, burstiness=burstiness(counts, states))
        profiles.append(profile)
        if len(best) < count:
            heapq.heappush(best, profile.intensity)
        else:
            heapq.heappushpop(best, profile.intensity)
    profiles.sort(key=lambda p: (-p.intensity, str(p.node)))
    return profiles[:count]


def _bin_counts(entries: Ledger, window: int) -> list[int]:
    """Per-window arrival counts over the node's own span."""
    t0 = entries[0][0]
    span = max(entries[-1][0] - t0, 0)
    counts = [0] * (span // window + 1)
    for tau, _amount in entries:
        counts[(tau - t0) // window] += 1
    return counts


def rank_candidates(
    out_ledgers: Mapping[NodeId, Ledger],
    in_ledgers: Mapping[NodeId, Ledger],
    *,
    window: int,
    top_sources: int = 8,
    top_sinks: int = 8,
    min_volume: float = 0.0,
) -> list[PairCandidate]:
    """Cross the top emitters with the top collectors, ranked.

    Takes the two ledger maps of :func:`node_ledgers`.
    The rank score is the product of the endpoint intensities, doubled
    when the peak windows overlap (money leaving the source while it is
    arriving at the sink is the laundering signature; independent bursts
    at unrelated times are usually coincidence).  Deterministic: ties
    break on the stringified node ids.
    """
    if top_sources < 1 or top_sinks < 1:
        raise InvalidQueryError(
            f"top_sources/top_sinks must be >= 1, "
            f"got {top_sources}/{top_sinks}"
        )
    emitters = _top_intensities(
        out_ledgers, window=window, min_volume=min_volume, count=top_sources
    )
    collectors = _top_intensities(
        in_ledgers, window=window, min_volume=min_volume, count=top_sinks
    )
    candidates = []
    for emitter in emitters:
        for collector in collectors:
            if emitter.node == collector.node:
                continue
            (a_lo, a_hi) = emitter.peak_window
            (b_lo, b_hi) = collector.peak_window
            boost = 2.0 if (a_lo <= b_hi and b_lo <= a_hi) else 1.0
            candidates.append(
                PairCandidate(
                    source=emitter.node,
                    sink=collector.node,
                    rank_score=emitter.intensity * collector.intensity * boost,
                    source_intensity=emitter,
                    sink_intensity=collector,
                )
            )
    candidates.sort(
        key=lambda c: (-c.rank_score, str(c.source), str(c.sink))
    )
    return candidates

