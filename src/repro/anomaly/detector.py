"""Anomaly detection with delta-BFlow queries (the Section 6.3 case study).

The paper's case study sweeps delta-BFlow queries over the cross product of
a source set ``S`` and a sink set ``T`` (labelled suspects plus random
normal accounts) for several delta values, then inspects the queries whose
flow densities are "significantly larger than the average case".

:class:`BurstDetector` packages that procedure:

1. run every (s, t, delta) combination;
2. rank the answers by density;
3. flag the answers whose density is a robust outlier (modified z-score
   against the batch median) *and* whose bursting interval is short — the
   combination that separated the paper's suspicious pair Q1 from the
   benign long-interval pair Q2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median
from typing import Iterable, Sequence

from repro.core.engine import find_bursting_flow
from repro.core.profile import PhaseBreakdown
from repro.core.query import BurstingFlowQuery
from repro.exceptions import InvalidQueryError, ScanQueryError
from repro.mining.stats import modified_z_score as _modified_z_score
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: ``on_error=`` choices for :meth:`BurstDetector.scan`.
SCAN_ERROR_MODES = ("raise", "record")


@dataclass(frozen=True, slots=True)
class ScanError:
    """One failed (source, sink, delta) combination of a sweep."""

    source: NodeId
    sink: NodeId
    delta: int
    error: str


@dataclass(frozen=True, slots=True)
class ScanFinding:
    """One (source, sink, delta) answer from the sweep."""

    source: NodeId
    sink: NodeId
    delta: int
    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float

    @property
    def interval_length(self) -> int | None:
        """Length of the bursting interval, or None when no flow exists."""
        if self.interval is None:
            return None
        return self.interval[1] - self.interval[0]


@dataclass(slots=True)
class ScanReport:
    """All findings of one sweep plus the flagged outliers."""

    findings: list[ScanFinding]
    flagged: list[ScanFinding] = field(default_factory=list)
    #: Where the sweep's engine time went (transform vs maxflow vs prune),
    #: accumulated over every answered query.
    phases: PhaseBreakdown = field(default_factory=PhaseBreakdown)
    #: Per-query failures, populated only under ``scan(on_error="record")``
    #: (the default fail-fast mode raises :class:`ScanQueryError` instead).
    errors: list[ScanError] = field(default_factory=list)

    def top(self, count: int = 10) -> list[ScanFinding]:
        """The ``count`` highest-density findings."""
        ranked = sorted(self.findings, key=lambda f: f.density, reverse=True)
        return ranked[:count]

    def finding_for(
        self, source: NodeId, sink: NodeId, delta: int
    ) -> ScanFinding | None:
        """The finding for one exact (source, sink, delta), or None."""
        for finding in self.findings:
            if (
                finding.source == source
                and finding.sink == sink
                and finding.delta == delta
            ):
                return finding
        return None


class BurstDetector:
    """Sweeps delta-BFlow queries over S x T and flags density outliers.

    Args:
        network: the transaction (temporal flow) network.
        algorithm: which delta-BFlow solution to run (default BFQ*, as the
            paper's case study does).
        outlier_score: modified z-score above which a finding is flagged.
        max_interval_fraction: a flagged burst must additionally be shorter
            than this fraction of the horizon (benign heavy flows are heavy
            *and slow*; the paper's Q2 took days and was dismissed).
    """

    def __init__(
        self,
        network: TemporalFlowNetwork,
        *,
        algorithm: str = "bfq*",
        outlier_score: float = 3.5,
        max_interval_fraction: float = 0.2,
    ) -> None:
        if not 0 < max_interval_fraction <= 1:
            raise InvalidQueryError(
                f"max_interval_fraction must be in (0, 1], "
                f"got {max_interval_fraction}"
            )
        self.network = network
        self.algorithm = algorithm
        self.outlier_score = outlier_score
        self.max_interval_fraction = max_interval_fraction

    def scan(
        self,
        sources: Iterable[NodeId],
        sinks: Iterable[NodeId],
        deltas: Sequence[int],
        *,
        on_error: str = "raise",
    ) -> ScanReport:
        """Run all (s, t, delta) combinations and flag outliers.

        Pairs with ``s == t`` or with endpoints missing from the network
        are skipped silently (the paper's random normal accounts are drawn
        from the network, but user-provided suspect lists may be stale).

        A *failing* combination — the engine raising mid-sweep — follows
        ``on_error``, matching the batch-layer semantics: ``"raise"``
        (default) aborts the sweep with a :class:`ScanQueryError` naming
        the (source, sink, delta) that failed; ``"record"`` appends a
        :class:`ScanError` to :attr:`ScanReport.errors` and keeps
        sweeping, so one poisoned query cannot void hours of results.
        """
        if on_error not in SCAN_ERROR_MODES:
            raise InvalidQueryError(
                f"on_error must be one of {SCAN_ERROR_MODES}, got {on_error!r}"
            )
        findings: list[ScanFinding] = []
        errors: list[ScanError] = []
        phases = PhaseBreakdown()
        for source in sources:
            for sink in sinks:
                if source == sink:
                    continue
                if source not in self.network or sink not in self.network:
                    continue
                for delta in deltas:
                    try:
                        result = find_bursting_flow(
                            self.network,
                            BurstingFlowQuery(source, sink, delta),
                            algorithm=self.algorithm,
                        )
                    except Exception as exc:
                        if on_error == "raise":
                            raise ScanQueryError(
                                source, sink, delta, exc
                            ) from exc
                        errors.append(
                            ScanError(
                                source=source,
                                sink=sink,
                                delta=delta,
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        )
                        continue
                    phases.add(result.stats)
                    findings.append(
                        ScanFinding(
                            source=source,
                            sink=sink,
                            delta=delta,
                            density=result.density,
                            interval=result.interval,
                            flow_value=result.flow_value,
                        )
                    )
        return ScanReport(
            findings=findings,
            flagged=self._flag(findings),
            phases=phases,
            errors=errors,
        )

    def _flag(self, findings: list[ScanFinding]) -> list[ScanFinding]:
        positives = [f for f in findings if f.density > 0]
        if len(positives) < 3:
            return []
        densities = [f.density for f in positives]
        mid = median(densities)
        mad = median(abs(d - mid) for d in densities)
        horizon = self.network.t_max - self.network.t_min
        max_length = max(1, int(horizon * self.max_interval_fraction))
        flagged = []
        for finding in positives:
            score = _modified_z_score(finding.density, mid, mad)
            length = finding.interval_length
            if (
                score >= self.outlier_score
                and length is not None
                and length <= max_length
            ):
                flagged.append(finding)
        flagged.sort(key=lambda f: f.density, reverse=True)
        return flagged
