"""The continuous burst-mining pipeline: ingest → pre-filter → confirm → persist.

:class:`MiningPipeline` is the paper's Grab case study run as a
*workload* instead of a one-shot script:

1. **ingest** — :meth:`MiningPipeline.sync` derives per-node
   emission/absorption ledgers from the network's edge columns
   (:func:`~repro.mining.prefilter.node_ledgers`) whenever the epoch
   moved, so appends made by anyone on the shared network (the
   service/cluster append path) are seen by the next scan.
2. **pre-filter** — :func:`~repro.mining.prefilter.rank_candidates`
   crosses the top burst-intense emitters with the top collectors; the
   survivors are a tiny fraction of the exhaustive S×T sweep
   (:attr:`FunnelStats.amortization` reports the measured ratio).
3. **confirm** — the survivors feed
   :func:`repro.core.planner.top_k_bursts`, so overlapping candidates
   share skeleton compiles and window memos, and every answer carries
   the engine's canonical tie-break.
4. **persist** — confirmed outliers become content-addressed
   :class:`~repro.mining.store.PatternRecord` rows in the durable
   :class:`~repro.mining.store.PatternStore`; a re-scan over unchanged
   history dedupes to the same ``pattern_id`` set.

:meth:`MiningPipeline.scan` is :meth:`~MiningPipeline.shortlist` (steps
1–2), a local ``top_k_bursts`` (step 3), then
:meth:`~MiningPipeline.settle` (flagging and step 4).  The cluster
coordinator runs the same two halves over its committed mirror and
confirms on its replicas in between.

Flagging (:func:`flag_entries`) is the one robust modified-z-score +
short-interval rule that :class:`repro.anomaly.detector.BurstDetector`
also flags with (density outlier against the confirmed batch median,
interval shorter than a fraction of the horizon), so a mining hit means
exactly what a case-study hit means.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from statistics import median
from typing import Any, Mapping, Sequence

from repro.core.planner import BurstEntry, top_k_bursts
from repro.exceptions import InvalidQueryError
from repro.mining.prefilter import (
    Ledgers,
    NodeIntensity,
    node_ledgers,
    rank_candidates,
)
from repro.mining.stats import modified_z_score
from repro.mining.store import (
    PatternRecord,
    PatternStore,
    canonical_evidence,
    pattern_hash,
    pattern_id_for,
)
from repro.temporal.edge import NodeId
from repro.temporal.network import TemporalFlowNetwork

#: ``persist=`` choices for :meth:`MiningPipeline.scan`.
PERSIST_MODES = ("flagged", "all")


@dataclass(frozen=True, slots=True)
class MiningConfig:
    """Knobs of the funnel (defaults follow the case-study detector)."""

    top_sources: int = 8
    top_sinks: int = 8
    min_volume: float = 0.0
    #: Modified z-score above which a confirmed burst is flagged.
    outlier_score: float = 3.5
    #: A flagged burst must be shorter than this fraction of the horizon.
    max_interval_fraction: float = 0.2
    #: Confirmed bursts below this density are never persisted.
    min_density: float = 0.0


@dataclass(slots=True)
class FunnelStats:
    """What the pre-filter saved (the measured amortization figure)."""

    nodes_scored: int = 0
    #: Size of the exhaustive S×T sweep the funnel avoided.
    exhaustive_pairs: int = 0
    candidates: int = 0
    #: δ-BFlow solves actually run (== candidates after filtering).
    solves: int = 0
    confirmed: int = 0
    flagged: int = 0

    @property
    def amortization(self) -> float:
        """Exhaustive solves avoided per solve run (≥ 1.0)."""
        if self.solves <= 0:
            return float(self.exhaustive_pairs) if self.exhaustive_pairs else 1.0
        return self.exhaustive_pairs / self.solves

    def as_dict(self) -> dict[str, Any]:
        return {
            "nodes_scored": self.nodes_scored,
            "exhaustive_pairs": self.exhaustive_pairs,
            "candidates": self.candidates,
            "solves": self.solves,
            "confirmed": self.confirmed,
            "flagged": self.flagged,
            "amortization": self.amortization,
        }


@dataclass(slots=True)
class ScanOutcome:
    """One scan's result: what was persisted and what the funnel did."""

    records: list[PatternRecord] = field(default_factory=list)
    new_ids: list[str] = field(default_factory=list)
    deduped: int = 0
    funnel: FunnelStats = field(default_factory=FunnelStats)
    epoch: int = 0
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "patterns": [record.as_dict() for record in self.records],
            "new": len(self.new_ids),
            "new_ids": list(self.new_ids),
            "deduped": self.deduped,
            "funnel": self.funnel.as_dict(),
            "epoch": self.epoch,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass(slots=True)
class Shortlist:
    """A scan between its halves: the candidate pairs awaiting
    confirmation, and what :meth:`MiningPipeline.settle` needs to finish."""

    persist: str
    config: MiningConfig
    #: Carries the scan's epoch and the funnel filled up to ``candidates``.
    outcome: ScanOutcome
    started: float
    pairs: list[tuple[NodeId, NodeId]] = field(default_factory=list)
    intensities: dict[NodeId, NodeIntensity] = field(default_factory=dict)


def score_entries(
    entries: Sequence[BurstEntry], *, min_density: float = 0.0
) -> list[tuple[BurstEntry, float]]:
    """Every positive entry at or above ``min_density``, with its robust z.

    The z-score is taken against the median/MAD of *all* positive
    densities in the batch.
    """
    positives = [e for e in entries if e.density > 0]
    densities = [e.density for e in positives]
    mid = median(densities) if densities else 0.0
    mad = median(abs(d - mid) for d in densities) if densities else 0.0
    return [
        (entry, modified_z_score(entry.density, mid, mad))
        for entry in positives
        if entry.density >= min_density
    ]


def flag_entries(
    entries: Sequence[BurstEntry],
    *,
    horizon: int,
    outlier_score: float = 3.5,
    max_interval_fraction: float = 0.2,
    min_density: float = 0.0,
) -> list[tuple[BurstEntry, float]]:
    """The outlier rule over confirmed entries, with scores.

    Returns ``(entry, z)`` pairs for entries whose density is a robust
    outlier against the batch median *and* whose interval is short.
    Fewer than 3 positive densities is not a distribution: nothing is
    flagged.  :meth:`repro.anomaly.detector.BurstDetector.scan` flags
    through this function too, so mining and case-study scans agree on
    what counts as anomalous.
    """
    if sum(1 for e in entries if e.density > 0) < 3:
        return []
    max_length = max(1, int(horizon * max_interval_fraction))
    flagged = [
        (entry, z)
        for entry, z in score_entries(entries, min_density=min_density)
        if z >= outlier_score
        and entry.interval[1] - entry.interval[0] <= max_length
    ]
    flagged.sort(key=lambda item: -item[0].density)
    return flagged


def build_record(
    network: TemporalFlowNetwork,
    entry: BurstEntry,
    *,
    epoch: int,
    z_score: float = 0.0,
    detection_method: str = "mining_funnel",
    intensities: Mapping[NodeId, NodeIntensity] | None = None,
) -> PatternRecord:
    """Materialise one confirmed burst as a content-addressed record."""
    evidence = canonical_evidence(
        network, entry.source, entry.sink, entry.interval
    )
    hash_hex = pattern_hash(entry.source, entry.sink, entry.interval, evidence)
    profile = intensities or {}
    source_profile = profile.get(entry.source)
    sink_profile = profile.get(entry.sink)
    return PatternRecord(
        pattern_id=pattern_id_for(hash_hex),
        pattern_hash=hash_hex,
        pattern_type="bursting_flow",
        source=entry.source,
        sink=entry.sink,
        delta=entry.delta,
        interval=entry.interval,
        density=entry.density,
        flow_value=entry.flow_value,
        epoch=epoch,
        detection_method=detection_method,
        z_score=z_score,
        source_concentration=(
            source_profile.concentration if source_profile else 0.0
        ),
        sink_concentration=(
            sink_profile.concentration if sink_profile else 0.0
        ),
        evidence=evidence,
    )


def persist_entries(
    store: PatternStore,
    network: TemporalFlowNetwork,
    scored_entries: Sequence[tuple[BurstEntry, float]],
    *,
    epoch: int,
    detection_method: str = "mining_funnel",
    intensities: Mapping[NodeId, NodeIntensity] | None = None,
) -> tuple[list[PatternRecord], list[str], int]:
    """Persist flagged entries; returns (records, new ids, dedupe count).

    ``records`` are the *stored* rows for every flagged entry — for a
    deduped entry that is the original record, proving the re-scan
    derived the same id.
    """
    records: list[PatternRecord] = []
    new_ids: list[str] = []
    deduped = 0
    for entry, z in scored_entries:
        record = build_record(
            network,
            entry,
            epoch=epoch,
            z_score=z,
            detection_method=detection_method,
            intensities=intensities,
        )
        if store.add(record):
            new_ids.append(record.pattern_id)
            records.append(record)
        else:
            deduped += 1
            stored = store.get(record.pattern_id)
            assert stored is not None
            records.append(stored)
    return records, new_ids, deduped


class MiningPipeline:
    """Continuous burst mining over one live network.

    Args:
        network: the temporal flow network to mine (shared with the
            service/cluster append path; ``scan`` syncs before ranking).
        store: the durable pattern store detections persist to.
        config: funnel knobs (:class:`MiningConfig`).
    """

    def __init__(
        self,
        network: TemporalFlowNetwork,
        store: PatternStore,
        *,
        config: MiningConfig | None = None,
    ) -> None:
        self.network = network
        self.store = store
        self.config = config or MiningConfig()
        self.scans = 0
        self._ledgers: tuple[int, Ledgers, Ledgers] | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def sync(self) -> tuple[Ledgers, Ledgers]:
        """The network's ``(out_ledgers, in_ledgers)`` at its current epoch.

        Derived afresh (:func:`~repro.mining.prefilter.node_ledgers`) only
        when the epoch moved since the last call, so any mutation of the
        shared network (appends, capacity merges, adopted epochs) is seen.
        """
        epoch = self.network.epoch
        if self._ledgers is None or self._ledgers[0] != epoch:
            self._ledgers = (epoch, *node_ledgers(self.network))
        return self._ledgers[1], self._ledgers[2]

    # ------------------------------------------------------------------
    # The scan: shortlist → confirm → settle (flag and persist)
    # ------------------------------------------------------------------
    def scan(
        self,
        delta: int,
        *,
        pairs: Sequence[tuple[NodeId, NodeId]] | None = None,
        persist: str = "flagged",
        top: int | None = None,
        min_volume: float | None = None,
    ) -> ScanOutcome:
        """One full funnel pass; persists detections, returns the outcome.

        Args:
            delta: minimum bursting-interval length for confirmation.
            pairs: explicit candidate pairs (skips the pre-filter; the
                oracle backend pins candidates this way).  Pairs with
                identical endpoints or endpoints missing from the
                network are skipped.
            persist: ``"flagged"`` stores only robust density outliers
                (the default, mirroring the case-study detector);
                ``"all"`` stores every confirmed positive burst above
                ``config.min_density`` (the oracle's differential mode).
            top: per-scan override of ``config.top_sources`` and
                ``config.top_sinks`` (wire requests carry this).
            min_volume: per-scan override of ``config.min_volume``.
        """
        shortlist = self.shortlist(
            delta, pairs=pairs, persist=persist, top=top, min_volume=min_volume
        )
        entries = (
            top_k_bursts(
                self.network, shortlist.pairs, delta, k=len(shortlist.pairs)
            )
            if shortlist.pairs
            else []
        )
        return self.settle(shortlist, entries)

    def shortlist(
        self,
        delta: int,
        *,
        pairs: Sequence[tuple[NodeId, NodeId]] | None = None,
        persist: str = "flagged",
        top: int | None = None,
        min_volume: float | None = None,
    ) -> Shortlist:
        """The first half of :meth:`scan`: sync, then rank (or pin) the
        candidate pairs; the funnel is filled up to ``candidates``.

        Takes :meth:`scan`'s arguments.  The caller confirms
        ``shortlist.pairs`` with a top-k over all of them and hands the
        entries to :meth:`settle`; the cluster coordinator confirms on
        its replicas this way.
        """
        if delta < 1:
            raise InvalidQueryError(f"delta must be >= 1, got {delta}")
        if persist not in PERSIST_MODES:
            raise InvalidQueryError(
                f"persist must be one of {', '.join(PERSIST_MODES)}, "
                f"got {persist!r}"
            )
        started = time.perf_counter()
        out_ledgers, in_ledgers = self.sync()
        config = self.config
        if top is not None or min_volume is not None:
            config = replace(
                config,
                top_sources=top if top is not None else config.top_sources,
                top_sinks=top if top is not None else config.top_sinks,
                min_volume=(
                    min_volume if min_volume is not None else config.min_volume
                ),
            )
        shortlist = Shortlist(
            persist=persist,
            config=config,
            outcome=ScanOutcome(epoch=self.network.epoch),
            started=started,
        )
        funnel = shortlist.outcome.funnel

        emit_volumes = {
            node for node, entries in out_ledgers.items()
            if sum(amount for _, amount in entries) >= config.min_volume
        }
        sink_volumes = {
            node for node, entries in in_ledgers.items()
            if sum(amount for _, amount in entries) >= config.min_volume
        }
        funnel.nodes_scored = len(set(out_ledgers) | set(in_ledgers))
        funnel.exhaustive_pairs = len(emit_volumes) * len(sink_volumes) - len(
            emit_volumes & sink_volumes
        )

        if pairs is None:
            candidates = rank_candidates(
                out_ledgers,
                in_ledgers,
                window=delta,
                top_sources=config.top_sources,
                top_sinks=config.top_sinks,
                min_volume=config.min_volume,
            )
            shortlist.pairs = [candidate.pair for candidate in candidates]
            for candidate in candidates:
                shortlist.intensities.setdefault(
                    candidate.source, candidate.source_intensity
                )
                shortlist.intensities.setdefault(
                    candidate.sink, candidate.sink_intensity
                )
        else:
            shortlist.pairs = [
                (source, sink)
                for source, sink in pairs
                if source != sink
                and source in self.network
                and sink in self.network
            ]
        funnel.candidates = len(shortlist.pairs)
        return shortlist

    def settle(
        self, shortlist: Shortlist, entries: Sequence[BurstEntry]
    ) -> ScanOutcome:
        """The second half of :meth:`scan`: flag (or score) the confirmed
        ``entries`` of ``shortlist.pairs``, persist them, and finish the
        funnel."""
        config = shortlist.config
        outcome = shortlist.outcome
        funnel = outcome.funnel
        funnel.solves = len(shortlist.pairs)
        funnel.confirmed = len(entries)
        if shortlist.persist == "flagged":
            selected = flag_entries(
                entries,
                horizon=self.network.time_span,
                outlier_score=config.outlier_score,
                max_interval_fraction=config.max_interval_fraction,
                min_density=config.min_density,
            )
        else:
            selected = score_entries(entries, min_density=config.min_density)
        funnel.flagged = len(selected)
        outcome.records, outcome.new_ids, outcome.deduped = persist_entries(
            self.store,
            self.network,
            selected,
            epoch=outcome.epoch,
            intensities=shortlist.intensities,
        )
        outcome.elapsed_ms = (time.perf_counter() - shortlist.started) * 1000.0
        self.scans += 1
        return outcome

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def patterns(self, **filters: Any) -> list[PatternRecord]:
        """Query the durable store (passthrough to ``PatternStore.query``)."""
        return self.store.query(**filters)
