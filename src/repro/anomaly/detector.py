"""Anomaly detection with delta-BFlow queries (the Section 6.3 case study).

The paper's case study sweeps delta-BFlow queries over the cross product of
a source set ``S`` and a sink set ``T`` (labelled suspects plus random
normal accounts) for several delta values, then inspects the queries whose
flow densities are "significantly larger than the average case".

:class:`BurstDetector` packages that procedure:

1. answer every (s, t, delta) combination through the multi-query planner
   (:func:`repro.core.planner.answer_planned`), one batch per source, so
   all of a source's sinks and deltas share one skeleton compile and each
   (s, t) pair's deltas share its window maxflows;
2. rank the answers by density;
3. flag the answers whose density is a robust outlier (modified z-score
   against the batch median) *and* whose bursting interval is short — the
   combination that separated the paper's suspicious pair Q1 from the
   benign long-interval pair Q2 (:func:`repro.mining.pipeline.flag_entries`,
   the rule the mining pipeline flags with).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.planner import BurstEntry, answer_planned
from repro.core.profile import PhaseBreakdown
from repro.core.query import BurstingFlowQuery, BurstingFlowResult
from repro.exceptions import InvalidQueryError, ScanQueryError
from repro.mining.pipeline import flag_entries
from repro.temporal.edge import NodeId
from repro.temporal.network import TemporalFlowNetwork

#: ``on_error=`` choices for :meth:`BurstDetector.scan`.
SCAN_ERROR_MODES = ("raise", "record")

#: One (source, sink, delta) answer of a sweep.
ScanFinding = BurstEntry


@dataclass(frozen=True, slots=True)
class ScanError:
    """One failed (source, sink, delta) combination of a sweep."""

    source: NodeId
    sink: NodeId
    delta: int
    error: str


def _failure(
    on_error: str, source: NodeId, sink: NodeId, delta: int, exc: Exception
) -> ScanError:
    """The row for one failed query; under ``"raise"``, raise it instead."""
    if on_error == "raise":
        raise ScanQueryError(source, sink, delta, exc) from exc
    return ScanError(source, sink, delta, f"{type(exc).__name__}: {exc}")


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
        outlier_score: modified z-score above which a finding is flagged.
        max_interval_fraction: a flagged burst must additionally be shorter
            than this fraction of the horizon (benign heavy flows are heavy
            *and slow*; the paper's Q2 took days and was dismissed).
    """

    def __init__(
        self,
        network: TemporalFlowNetwork,
        *,
        outlier_score: float = 3.5,
        max_interval_fraction: float = 0.2,
    ) -> None:
        if not 0 < max_interval_fraction <= 1:
            raise InvalidQueryError(
                f"max_interval_fraction must be in (0, 1], "
                f"got {max_interval_fraction}"
            )
        self.network = network
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
        Each source's remaining sinks and deltas are answered as one
        planner batch; findings and errors come out in source -> sink ->
        delta order.

        A *failing* combination follows ``on_error``, matching the
        batch-layer semantics: ``"raise"`` (default) aborts the sweep with
        a :class:`ScanQueryError` naming the (source, sink, delta) that
        failed; ``"record"`` appends a :class:`ScanError` to
        :attr:`ScanReport.errors` and keeps sweeping, so one poisoned
        query cannot void hours of results.  An invalid query fails for
        its own delta only.  When a source's batch fails, its pairs are
        re-answered one batch each, so a failure still names its own pair:
        a failed pair batch fails every delta of that pair (``"raise"``
        names the pair's first delta) and the source's other pairs are
        still answered.
        """
        if on_error not in SCAN_ERROR_MODES:
            raise InvalidQueryError(
                f"on_error must be one of {SCAN_ERROR_MODES}, got {on_error!r}"
            )
        findings: list[ScanFinding] = []
        errors: list[ScanError] = []
        phases = PhaseBreakdown()
        sinks = [sink for sink in sinks if sink in self.network]
        for source in sources:
            if source not in self.network:
                continue
            targets = [sink for sink in sinks if sink != source]
            for outcome in self._scan_source(
                source, targets, deltas, on_error, phases
            ):
                if isinstance(outcome, ScanError):
                    errors.append(outcome)
                else:
                    findings.append(outcome)
        flagged = flag_entries(
            findings,
            horizon=self.network.time_span,
            outlier_score=self.outlier_score,
            max_interval_fraction=self.max_interval_fraction,
        )
        return ScanReport(
            findings=findings,
            flagged=[finding for finding, _z in flagged],
            phases=phases,
            errors=errors,
        )

    def _scan_source(
        self,
        source: NodeId,
        sinks: Sequence[NodeId],
        deltas: Sequence[int],
        on_error: str,
        phases: PhaseBreakdown,
    ) -> Iterator[ScanFinding | ScanError]:
        """One source's sinks x deltas as one planner batch; one outcome
        per (sink, delta), sink-major."""
        slots: list[BurstingFlowQuery | ScanError] = []
        for sink in sinks:
            for delta in deltas:
                try:
                    slots.append(BurstingFlowQuery(source, sink, delta))
                except Exception as exc:
                    slots.append(_failure(on_error, source, sink, delta, exc))
        queries = [q for q in slots if isinstance(q, BurstingFlowQuery)]
        answers = iter(self._answer(queries, on_error))
        for slot in slots:
            outcome = slot if isinstance(slot, ScanError) else next(answers)
            if isinstance(outcome, ScanError):
                yield outcome
                continue
            phases.add(outcome.stats)
            yield ScanFinding(
                source=source,
                sink=slot.sink,
                delta=slot.delta,
                density=outcome.density,
                interval=outcome.interval,
                flow_value=outcome.flow_value,
            )

    def _answer(
        self, queries: list[BurstingFlowQuery], on_error: str
    ) -> list[BurstingFlowResult | ScanError]:
        """Answer one source's queries as one planner batch, in order.

        When the batch raises and spans several sinks, each sink's queries
        are re-answered as a batch of their own, so a failure names its own
        (source, sink) pair and spares the source's healthy pairs.
        """
        try:
            return list(answer_planned(self.network, queries)[0])
        except Exception as exc:
            sinks = list(dict.fromkeys(query.sink for query in queries))
            if len(sinks) == 1:
                return [
                    _failure(on_error, q.source, q.sink, q.delta, exc)
                    for q in queries
                ]
        per_sink = {
            sink: iter(
                self._answer([q for q in queries if q.sink == sink], on_error)
            )
            for sink in sinks
        }
        return [next(per_sink[query.sink]) for query in queries]
