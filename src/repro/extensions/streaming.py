"""Streaming delta-BFlow monitoring (the paper's future-work item ii).

Section 7 proposes studying "delta-BFlow query under a streaming or dynamic
model to tackle a more interactive querying on real-time data".  This
extension provides that for the append-only, time-ordered stream setting
(the natural order of transaction logs).

:class:`StreamingBurstMonitor` watches one (source, sink, delta) triple and
maintains the best bursting record with **watermark semantics**: a
timestamp is *complete* once a strictly larger timestamp has been observed
(or :meth:`finalize` is called), and :meth:`best` reflects all complete
timestamps.  This is the standard stream-processing contract and is what
makes incremental evaluation sound — batches at one timestamp are handled
atomically, so no late edge can land inside an already-evaluated window.

The engine underneath is the Section-5 machinery:

* each starting timestamp in ``Ti(s)`` owns one insertion-case incremental
  transformed network, constructed lazily when its minimal window
  ``[start, start + delta]`` completes (at which point the stream
  guarantees every edge of that window has arrived);
* later sink activity extends the window's end (Lemma 3) — exactly the
  candidate endings ``Ti(t)`` of the offline enumeration;
* the Observation-2 bound (:func:`~repro.core.record.should_prune`)
  skips Maxflow runs that cannot beat or tie the best density (the
  skipped sink capacity keeps accumulating, so the bound stays exact).

The best window is kept in a :class:`~repro.core.record.BestRecord`, so
density ties are broken by the canonical rule, not by arrival order, and
the monitor's answers match the offline ``find_bursting_flow`` on the
edges seen so far — interval included.  :func:`streaming_bfq` replays a
whole network through a monitor; it is the ``streaming`` backend of the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import BurstingFlowQuery, BurstingFlowResult
from repro.core.record import BestRecord, should_prune
from repro.exceptions import InvalidQueryError, InvalidTimestampError
from repro.temporal.edge import NodeId, TemporalEdge, Timestamp
from repro.temporal.network import TemporalFlowNetwork


@dataclass(frozen=True, slots=True)
class BurstRecord:
    """The best bursting record observed so far."""

    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float

    @property
    def found(self) -> bool:
        """Whether a positive-density burst has been observed."""
        return self.interval is not None and self.density > 0


class _Window:
    """One starting timestamp's candidate window."""

    __slots__ = ("start", "state", "flow_value", "pending_sink_capacity")

    def __init__(self, start: Timestamp) -> None:
        self.start = start
        self.state: IncrementalTransformedNetwork | None = None
        self.flow_value = 0.0
        self.pending_sink_capacity = 0.0


class StreamingBurstMonitor:
    """Maintains the delta-BFlow answer for one (s, t, delta) over a stream."""

    def __init__(self, source: NodeId, sink: NodeId, delta: int) -> None:
        if source == sink:
            raise InvalidQueryError("source and sink must differ")
        if not isinstance(delta, int) or isinstance(delta, bool) or delta < 1:
            raise InvalidQueryError(f"delta must be a positive int, got {delta!r}")
        self.source = source
        self.sink = sink
        self.delta = delta
        self.network = TemporalFlowNetwork()
        self._windows: dict[Timestamp, _Window] = {}
        self._record = BestRecord()
        self._best = BurstRecord(0.0, None, 0.0)
        self._batch: list[TemporalEdge] = []
        self._batch_tau: Timestamp | None = None
        self._watermark: Timestamp | None = None
        self._finalized = False
        self._maxflow_runs = 0
        self._pruned = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self, u: NodeId, v: NodeId, tau: Timestamp, capacity: float
    ) -> BurstRecord:
        """Ingest one edge (stream must be time-ordered).

        Raises:
            InvalidTimestampError: if ``tau`` precedes the current batch
                timestamp, or the monitor was already finalized.
        """
        if self._finalized:
            raise InvalidTimestampError(tau, "monitor already finalized")
        if self._batch_tau is not None and tau < self._batch_tau:
            raise InvalidTimestampError(
                tau, f"stream went backwards (current batch at {self._batch_tau})"
            )
        if self._batch_tau is not None and tau > self._batch_tau:
            self._close_batch()
        self._batch_tau = tau
        self._batch.append(TemporalEdge(u, v, tau, capacity))
        self.network.add_edge(TemporalEdge(u, v, tau, capacity))
        return self._best

    def observe_batch(
        self, edges: list[tuple[NodeId, NodeId, Timestamp, float]]
    ) -> BurstRecord:
        """Ingest many edges (must be time-ordered)."""
        for u, v, tau, capacity in edges:
            self.observe(u, v, tau, capacity)
        return self._best

    def finalize(self) -> BurstRecord:
        """Mark the stream complete and return the overall answer.

        Processes the trailing timestamp batch and the footnote-4 corner
        window ``[T_max - delta, T_max]`` for starts whose minimal window
        overshoots the horizon.
        """
        if not self._finalized:
            self._close_batch()
            self._finalized = True
            self._evaluate_corner()
        return self._best

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def best(self) -> BurstRecord:
        """Best record over all *complete* timestamps (watermark semantics)."""
        return self._best

    @property
    def watermark(self) -> Timestamp | None:
        """Largest complete timestamp, or None before the first closes."""
        return self._watermark

    @property
    def live_windows(self) -> int:
        """Number of candidate windows currently tracked."""
        return len(self._windows)

    @property
    def epoch(self) -> int:
        """Mutation epoch of the underlying network.

        Every observed edge bumps it, so it is a fingerprint of the
        stream prefix seen so far — the same counter
        :class:`repro.service.BurstingFlowService` keys its result
        cache on, which lets a monitor's answers be correlated with
        (and safely cached alongside) served query results.
        """
        return self.network.epoch

    @property
    def stats(self) -> dict[str, int]:
        """Instrumentation counters (windows, maxflow runs, prunes)."""
        return {
            "live_windows": len(self._windows),
            "epoch": self.network.epoch,
            "maxflow_runs": self._maxflow_runs,
            "pruned_evaluations": self._pruned,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _close_batch(self) -> None:
        if self._batch_tau is None:
            return
        batch, tau = self._batch, self._batch_tau
        self._batch = []
        self._watermark = tau

        sink_capacity_added = 0.0
        source_fired = False
        for edge in batch:
            if edge.v == self.sink:
                sink_capacity_added += edge.capacity
            if edge.u == self.source:
                source_fired = True
        for window in self._windows.values():
            window.pending_sink_capacity += sink_capacity_added
        if source_fired and tau not in self._windows:
            self._windows[tau] = _Window(tau)

        for window in self._windows.values():
            self._advance_window(window, tau, sink_capacity_added > 0)

    def _advance_window(
        self, window: _Window, now: Timestamp, sink_touched: bool
    ) -> None:
        minimal_end = window.start + self.delta
        if now < minimal_end:
            return  # the minimal window has not completed yet
        if window.state is None:
            # All edges of [start, minimal_end] have arrived (now >= end of
            # the minimal window and the stream is time-ordered beyond the
            # open batch), so the state can be built exactly once.
            # No skeleton: the stream keeps appending edges to the network
            # after this state is built, and a compiled skeleton is a frozen
            # snapshot that would never see them.  Without one the state
            # reads reachability from the live network on every extension.
            window.state = IncrementalTransformedNetwork(
                self.network,
                self.source,
                self.sink,
                window.start,
                minimal_end,
            )
            window.state.run_maxflow()
            self._maxflow_runs += 1
            window.flow_value = window.state.flow_value()
            # The minimal-window solve covers sink capacity up to
            # minimal_end only; capacity that arrived in (minimal_end, now]
            # must stay pending for the Observation-2 bound below.
            window.pending_sink_capacity = (
                self.network.sink_capacity_in_window(
                    self.sink, minimal_end + 1, now
                )
                if now > minimal_end and self.sink in self.network
                else 0.0
            )
            self._offer(window.flow_value, window.start, minimal_end)
            if now == minimal_end:
                return
        if now <= window.state.tau_e:
            return
        if not sink_touched:
            # No new sink capacity: the Maxflow of [start, now] equals the
            # one already known for the shorter window, and the density
            # only drops. Nothing to do (the structural extension happens
            # lazily at the next sink event).
            return
        upper = window.flow_value + window.pending_sink_capacity
        if should_prune(upper, self._record.density, now - window.start):
            self._pruned += 1
            return  # Observation 2: provably cannot beat the best
        window.state.extend_end(now)
        window.state.run_maxflow()
        self._maxflow_runs += 1
        window.flow_value = window.state.flow_value()
        window.pending_sink_capacity = 0.0
        self._offer(window.flow_value, window.start, now)

    def _evaluate_corner(self) -> None:
        if self.network.num_edges == 0:
            return
        t_min, t_max = self.network.t_min, self.network.t_max
        if t_max - t_min < self.delta:
            return
        overshoot = any(
            start + self.delta > t_max
            for start in self.network.tistamp_out(self.source)
        ) if self.source in self.network else False
        if not overshoot:
            return
        lo, hi = t_max - self.delta, t_max
        if lo in self._windows:
            return  # the window opened at lo already solved [lo, hi]
        state = IncrementalTransformedNetwork(
            self.network, self.source, self.sink, lo, hi
        )
        state.run_maxflow()
        self._maxflow_runs += 1
        self._offer(state.flow_value(), lo, hi)

    def _offer(self, value: float, lo: Timestamp, hi: Timestamp) -> None:
        record = self._record
        if record.offer(value, lo, hi):
            self._best = BurstRecord(record.density, record.interval, record.value)


def streaming_bfq(
    network: TemporalFlowNetwork, query: BurstingFlowQuery
) -> BurstingFlowResult:
    """Oracle backend: replay ``network``'s edges in time order, then finalize."""
    query.validate_against(network)
    monitor = StreamingBurstMonitor(query.source, query.sink, query.delta)
    for edge in sorted(network.edges(), key=lambda edge: edge.tau):
        monitor.observe(edge.u, edge.v, edge.tau, edge.capacity)
    record = monitor.finalize()
    return BurstingFlowResult(record.density, record.interval, record.flow_value)
