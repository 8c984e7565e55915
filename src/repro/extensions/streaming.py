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
* each later sink-touching batch is one candidate ending ``Ti(t)`` of the
  offline enumeration, evaluated by
  :func:`~repro.core.sweep.insertion_step`, the step BFQ+ and BFQ* drive:
  the Observation-2 bound skips candidates that cannot beat or tie the
  best density, and a surviving one extends the window's end (Lemma 3)
  and resumes Maxflow.  A state ends at its last solved window, so the
  bound is read off it and nothing is carried between batches.

The minimal and corner windows are solved through
:func:`~repro.core.sweep.solve`, and the monitor's counters come from one
:class:`~repro.core.query.QueryStats`.

The best window is kept in a :class:`~repro.core.record.BestRecord`, so
density ties are broken by the canonical rule, not by arrival order, and
the monitor's answers match the offline ``find_bursting_flow`` on the
edges seen so far — interval included.  :func:`streaming_bfq` replays a
whole network through a monitor; it is the ``streaming`` backend of the
differential oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.query import BurstingFlowQuery, BurstingFlowResult, QueryStats
from repro.core.record import BestRecord
from repro.core.sweep import insertion_step, solve
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
        # Each start's state, or None until its minimal window completes.
        self._windows: dict[Timestamp, IncrementalTransformedNetwork | None] = {}
        self._record = BestRecord()
        self._stats = QueryStats()
        self._batch: list[TemporalEdge] = []
        self._batch_tau: Timestamp | None = None
        self._watermark: Timestamp | None = None
        self._finalized = False

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
        return self.best()

    def observe_batch(
        self, edges: list[tuple[NodeId, NodeId, Timestamp, float]]
    ) -> BurstRecord:
        """Ingest many edges (must be time-ordered)."""
        for u, v, tau, capacity in edges:
            self.observe(u, v, tau, capacity)
        return self.best()

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
        return self.best()

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def best(self) -> BurstRecord:
        """Best record over all *complete* timestamps (watermark semantics)."""
        record = self._record
        return BurstRecord(record.density, record.interval, record.value)

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
            "maxflow_runs": self._stats.maxflow_runs,
            "pruned_evaluations": self._stats.pruned_intervals,
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

        sink_touched = any(edge.v == self.sink for edge in batch)
        if any(edge.u == self.source for edge in batch):
            self._windows.setdefault(tau, None)
        for start, state in self._windows.items():
            if state is None:
                if tau < start + self.delta:
                    continue  # the minimal window has not completed yet
                state = self._windows[start] = self._solve_window(
                    start, start + self.delta
                )
            # Only a sink-touching batch is a candidate ending: without new
            # sink capacity the window's Maxflow cannot grow.
            if sink_touched and tau > state.tau_e:
                insertion_step(
                    state, tau, self._record, self._stats, use_pruning=True
                )
        # The monitor reports counters only; per-candidate samples would
        # grow with windows x sink batches over a long stream.
        self._stats.samples.clear()

    def _solve_window(
        self, lo: Timestamp, hi: Timestamp
    ) -> IncrementalTransformedNetwork:
        """Build and solve ``[lo, hi]``, whose edges have all arrived.

        No skeleton: the stream keeps appending edges to the network after
        the state is built, and a compiled skeleton is a frozen snapshot
        that would never see them.  Without one the state reads
        reachability from the live network on every extension.
        """
        t0 = time.perf_counter()
        state = IncrementalTransformedNetwork(
            self.network, self.source, self.sink, lo, hi
        )
        self._record.offer(solve(state, self._stats, "dinic", t0), lo, hi)
        return state

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
        lo = t_max - self.delta
        if lo in self._windows:
            return  # the window opened at lo already solved [lo, t_max]
        self._solve_window(lo, t_max)


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
