"""Multi-query planner: amortise delta-BFlow work across a batch.

The paper's target workload is fleet scale — millions of overlapping
``(s, t, delta)`` queries, most of which share endpoints (the Grab case
study sweeps a fixed suspect set at several deltas).  Answering each query
independently recompiles a :class:`~repro.core.skeleton.WindowSkeleton`
per query and re-solves every candidate-window Maxflow, even when two
queries in the same batch enumerate the *same* window.

The planner amortises both:

1. **Grouping** — the batch is partitioned by ``(source, sink)``
   (:func:`group_queries`), and the groups by source.  A skeleton
   depends only on its source, so each source compiles **one** skeleton
   reused across all of its sinks, queries and delta values.
2. **Window memoisation** — Lemma-2 candidate windows of different deltas
   overlap heavily (every window longer than both deltas is shared), so
   each ``(source, sink)`` group keeps a per-epoch :class:`WindowMemo`
   keyed on ``(tau_s, tau_e)``: the first query that needs a window
   solves its Maxflow; every later query — same delta repeated, or an
   overlapping sweep — reuses the value for free.  A window whose start
   reaches no sink in-edge
   (:meth:`~repro.core.skeleton.WindowSkeleton.reaches_sink`) is 0.0
   without an arena or a Maxflow run.
3. **Top-k densest bursts** (:func:`top_k_bursts`) — a first-class query
   over a candidate ``(s, t)`` list, ranked by the canonical tie-break.

Correctness: a window's Maxflow *value* is a pure function of the window
(the kernel is deterministic), and
:class:`~repro.core.record.BestRecord`'s canonical tie-break is
order-independent — so folding memoised values through each query's own
candidate plan reproduces the from-scratch
``find_bursting_flow(..., algorithm="bfq")`` answer exactly (density,
interval and flow value all ``==``).  All four exact backends read a
window's value from one source,
:meth:`~repro.core.incremental.IncrementalTransformedNetwork.flow_value`,
so BFQ+/BFQ* differ from the planner only where their incrementally
routed flow does, in the last bits of the value.  The ``planner`` oracle
backend differential-checks every fuzz trial.

Epoch safety: the memo snapshots the network epoch at construction and
refuses to serve after a mutation (matching the skeleton's own guard), so
a streaming append can never leak a stale window value into an answer —
the same invariant that makes the service's epoch-keyed result cache
sound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from repro.core.intervals import enumerate_candidates
from repro.core.query import (
    BurstingFlowQuery,
    BurstingFlowResult,
    IntervalSample,
    QueryStats,
)
from repro.core.record import BestRecord
from repro.core.skeleton import WindowSkeleton
from repro.core.sweep import solve_fresh
from repro.exceptions import GraphError, InvalidQueryError, ReproError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork


@dataclass(frozen=True, slots=True)
class QueryGroup:
    """One ``(source, sink)`` group of a batch.

    Attributes:
        source / sink: the shared endpoints.
        indices: batch positions of the group's queries, in input order.
    """

    source: NodeId
    sink: NodeId
    indices: tuple[int, ...]


def group_queries(queries: Sequence[BurstingFlowQuery]) -> list[QueryGroup]:
    """Partition a batch by ``(source, sink)``, first-appearance order."""
    order: dict[tuple[NodeId, NodeId], list[int]] = {}
    for index, query in enumerate(queries):
        order.setdefault((query.source, query.sink), []).append(index)
    return [
        QueryGroup(source=source, sink=sink, indices=tuple(indices))
        for (source, sink), indices in order.items()
    ]


@dataclass(slots=True)
class PlannerReport:
    """What the planner amortised while answering one batch.

    ``windows_total`` counts every candidate window folded into an answer;
    ``windows_solved`` of them were answered without the memo — by a
    Maxflow run, or as 0.0 without one when the skeleton shows that no
    included edge enters the sink — and ``windows_reused`` came out of a
    group's :class:`WindowMemo`.  The merge (:meth:`absorb`) is
    field-derived, like :func:`~repro.core.query.merge_query_stats`.
    """

    queries: int = 0
    groups: int = 0
    skeletons_compiled: int = 0
    windows_total: int = 0
    windows_solved: int = 0
    windows_reused: int = 0
    solve_seconds: float = 0.0

    def absorb(self, other: "PlannerReport") -> None:
        """Accumulate another report (e.g. one group's) into this one."""
        for spec in fields(PlannerReport):
            setattr(
                self, spec.name, getattr(self, spec.name) + getattr(other, spec.name)
            )

    @property
    def amortization(self) -> float:
        """Windows folded per window answered without the memo (>= 1.0)."""
        return self.windows_total / max(1, self.windows_solved)

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form (feeds the service ``/metrics`` snapshot)."""
        payload: dict[str, float] = {
            spec.name: getattr(self, spec.name) for spec in fields(PlannerReport)
        }
        payload["amortization"] = self.amortization
        return payload


class WindowMemo:
    """Per-epoch memo of candidate-window Maxflow values for one group.

    Keys are ``(tau_s, tau_e)``; values are ``(flow_value, network_size)``.
    The memo is sound because a window's Maxflow value is fully determined
    by the window at a fixed network epoch; it pins the epoch at
    construction and raises (like the skeleton it rides with) if the
    network mutates, so a hit can never serve a stale value.
    """

    __slots__ = ("network", "epoch", "values")

    def __init__(self, network: TemporalFlowNetwork) -> None:
        self.network = network
        self.epoch = network.epoch
        self.values: dict[tuple[Timestamp, Timestamp], tuple[float, int]] = {}

    def get(
        self, key: tuple[Timestamp, Timestamp]
    ) -> tuple[float, int] | None:
        if self.network.epoch != self.epoch:
            raise GraphError(
                "temporal network mutated under the planner's window memo; "
                "re-plan the batch at the new epoch"
            )
        return self.values.get(key)

    def put(self, key: tuple[Timestamp, Timestamp], value: float, size: int) -> None:
        self.values[key] = (value, size)


def _solve_window(
    skeleton: WindowSkeleton,
    sink: NodeId,
    tau_s: Timestamp,
    tau_e: Timestamp,
    stats: QueryStats,
) -> tuple[float, int]:
    """Solve one window off the source's skeleton: ``(value, network_size)``."""
    t0 = time.perf_counter()
    reaches = skeleton.reaches_sink(tau_s, tau_e, sink)
    swept = time.perf_counter() - t0
    if reaches:
        stats.transform_seconds += swept
        state, value = solve_fresh(skeleton, sink, tau_s, tau_e, stats)
        return value, state.num_nodes
    # No included edge enters the sink, so the Maxflow is 0 and no arena
    # is built.
    stats.pruned_intervals += 1
    stats.record_sample(
        IntervalSample(
            interval=(tau_s, tau_e),
            network_size=0,
            mode="pruned",
            maxflow_seconds=0.0,
            transform_seconds=swept,
            flow_value=0.0,
        )
    )
    return 0.0, 0


def _solve_source(
    network: TemporalFlowNetwork,
    batch: Sequence[BurstingFlowQuery],
    groups: Sequence[QueryGroup],
    results: list[BurstingFlowResult | None],
) -> PlannerReport:
    """Answer one source's groups on one skeleton, into ``results``.

    The skeleton is compiled lazily, at the first window any group has to
    solve, and serves every sink; each group keeps its own
    :class:`WindowMemo`.  Each query's answer lands at its batch position.
    Each query folds only *its own* candidate plan through a fresh
    :class:`BestRecord`, so its answer is independent of its siblings;
    only the skeleton and the group's window Maxflows are shared.
    """
    source = groups[0].source
    report = PlannerReport(
        queries=sum(len(group.indices) for group in groups), groups=len(groups)
    )
    t_start = time.perf_counter()
    skeleton: WindowSkeleton | None = None
    for group in groups:
        sink = group.sink
        memo = WindowMemo(network)
        for index in group.indices:
            plan = enumerate_candidates(network, source, sink, batch[index].delta)
            best = BestRecord()
            stats = QueryStats()
            for tau_s, tau_e in plan.intervals():
                stats.candidates_enumerated += 1
                hit = memo.get((tau_s, tau_e))
                if hit is None:
                    if skeleton is None:
                        t0 = time.perf_counter()
                        skeleton = WindowSkeleton(network, source)
                        stats.transform_seconds += time.perf_counter() - t0
                        report.skeletons_compiled += 1
                    value, size = _solve_window(
                        skeleton, sink, tau_s, tau_e, stats
                    )
                    memo.put((tau_s, tau_e), value, size)
                    report.windows_solved += 1
                else:
                    value, size = hit
                    stats.record_sample(
                        IntervalSample(
                            interval=(tau_s, tau_e),
                            network_size=size,
                            mode="memo",
                            maxflow_seconds=0.0,
                            transform_seconds=0.0,
                            flow_value=value,
                        )
                    )
                    report.windows_reused += 1
                best.offer(value, tau_s, tau_e)
            report.windows_total += stats.candidates_enumerated
            results[index] = BurstingFlowResult(
                density=best.density,
                interval=best.interval,
                flow_value=best.value,
                stats=stats,
            )
    report.solve_seconds = time.perf_counter() - t_start
    return report


def answer_planned(
    network: TemporalFlowNetwork,
    queries: Iterable[BurstingFlowQuery],
) -> tuple[list[BurstingFlowResult], PlannerReport]:
    """Answer a batch through the planner; results align with input order.

    The batch's ``(source, sink)`` groups (:func:`group_queries`) are
    answered source by source, in the caller's process: one skeleton per
    source, shared by its sinks, and one window memo per group.

    Args:
        network: the shared temporal flow network.
        queries: the batch (materialised internally).

    Returns:
        ``(results, report)`` — one result per query, plus the
        :class:`PlannerReport` of what the batch amortised.
    """
    batch: Sequence[BurstingFlowQuery] = list(queries)
    for query in batch:
        query.validate_against(network)
    report = PlannerReport()
    results: list[BurstingFlowResult | None] = [None] * len(batch)
    by_source: dict[NodeId, list[QueryGroup]] = {}
    for group in group_queries(batch):
        by_source.setdefault(group.source, []).append(group)
    for groups in by_source.values():
        report.absorb(_solve_source(network, batch, groups, results))
    return results, report  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Top-k densest bursts
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class BurstEntry:
    """One (source, sink, delta) answer: a top-k entry or a scan finding."""

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


def top_k_bursts(
    network: TemporalFlowNetwork,
    pairs: Iterable[tuple[NodeId, NodeId]],
    delta: int,
    *,
    k: int = 10,
) -> list[BurstEntry]:
    """The ``k`` densest bursts over a candidate ``(s, t)`` list.

    Each pair contributes its delta-BFlow answer (solved through the
    planner, so duplicate pairs cost one solve); pairs with no positive
    burst are dropped.  Ranking is deterministic and mirrors the
    canonical per-query tie-break: higher density first, ties broken by
    earlier ``tau_s``, then shorter interval, then the pair's first
    appearance in the input list.

    Args:
        pairs: candidate ``(source, sink)`` pairs (e.g. from a mining
            pre-filter); duplicates are deduplicated, first wins.
        delta: minimum bursting-interval length, shared by all pairs.
        k: how many entries to return (at least 1).
    """
    if k < 1:
        raise InvalidQueryError(f"k must be >= 1, got {k}")
    unique: list[tuple[NodeId, NodeId]] = []
    seen: set[tuple[NodeId, NodeId]] = set()
    for pair in pairs:
        key = (pair[0], pair[1])
        if key not in seen:
            seen.add(key)
            unique.append(key)
    queries = [
        BurstingFlowQuery(source, sink, delta) for source, sink in unique
    ]
    results, _report = answer_planned(network, queries)
    ranked: list[tuple[tuple, BurstEntry]] = []
    for position, ((source, sink), result) in enumerate(zip(unique, results)):
        if not result.found:
            continue
        assert result.interval is not None
        tau_s, tau_e = result.interval
        sort_key = (-result.density, tau_s, tau_e - tau_s, position)
        ranked.append(
            (
                sort_key,
                BurstEntry(
                    source=source,
                    sink=sink,
                    delta=delta,
                    density=result.density,
                    interval=result.interval,
                    flow_value=result.flow_value,
                ),
            )
        )
    ranked.sort(key=lambda item: item[0])
    return [entry for _key, entry in ranked[:k]]


# ----------------------------------------------------------------------
# Differential-oracle backend
# ----------------------------------------------------------------------
def companion_sink(
    network: TemporalFlowNetwork, query: BurstingFlowQuery
) -> NodeId | None:
    """The first head node in
    :meth:`~repro.temporal.network.TemporalFlowNetwork.edge_columns`
    order that is neither endpoint of ``query`` (``None`` when there is
    no such node): the sink of the oracle backends' same-source
    companion query."""
    heads = network.edge_columns()[2]
    return next((v for v in heads if v != query.source and v != query.sink), None)


def planner_bfq(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    **_kwargs: object,
) -> BurstingFlowResult:
    """Oracle backend: one query answered through a planner batch.

    The query is surrounded with the companions that force every
    amortisation path onto *it* — a query from the same source to another
    sink, solved first, so the query's windows come off a skeleton that
    sink already extended; an exact duplicate (whose windows must all come
    out of the memo); and overlapping delta sweeps above and below (whose
    plans share windows with the query's) — so the fuzz runner's
    cross-backend diff checks the shared, memoised answer, not a
    degenerate single-query batch.  The other sink is
    :func:`companion_sink`.
    The duplicate's answer is asserted byte-identical before the
    original's is returned.
    """
    other = companion_sink(network, query)
    batch = [] if other is None else [
        BurstingFlowQuery(query.source, other, query.delta)
    ]
    position = len(batch)
    deltas = [query.delta]  # the duplicate
    if query.delta > 1:
        deltas.append(query.delta - 1)
    deltas.append(query.delta + 1)
    batch += [query] + [
        BurstingFlowQuery(query.source, query.sink, delta) for delta in deltas
    ]
    results, _report = answer_planned(network, batch)
    original, duplicate = results[position], results[position + 1]
    if (
        duplicate.density != original.density
        or duplicate.interval != original.interval
        or duplicate.flow_value != original.flow_value
    ):
        raise ReproError(
            f"planner memo broke duplicate-query determinism: "
            f"{original.binary_record()!r} vs {duplicate.binary_record()!r} "
            f"for {query!r}"
        )
    return original
