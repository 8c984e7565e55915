"""Delta-sensitivity profiling.

The case study observes that "a larger delta leads to a smaller density.
Therefore, to detect delta-BFlow having a larger burstiness, delta can
often be set as relatively small values."  Analysts still need to *choose*
delta: too small and one-off transfers dominate (the trivial flows
Figure 1 circles in red ellipses); too large and genuine bursts are
averaged away.

:func:`density_profile` computes the full delta -> (density, interval)
curve, and :func:`suggest_delta` picks the knee of that curve: the largest
delta *before* the relative density drop exceeds a threshold — i.e. the
longest minimum duration that still preserves most of the burst's
intensity, which is exactly the filter role the paper assigns to delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.planner import answer_planned
from repro.core.query import BurstingFlowQuery, QueryStats
from repro.exceptions import InvalidQueryError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork


@dataclass(frozen=True, slots=True)
class ProfilePoint:
    """One evaluated delta."""

    delta: int
    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float


@dataclass(slots=True)
class PhaseBreakdown:
    """Where a query (or a sweep of queries) spent its time.

    The three phases partition the engine's measured work:

    * ``transform`` — compiling the window skeleton / building or
      extending transformed networks (structure, not flow);
    * ``maxflow`` — Dinic runs, incremental or from scratch;
    * ``prune`` — computing the Observation-2 sink-capacity bounds.

    Accumulable: :meth:`add` folds further :class:`QueryStats` in, so a
    scan or a service can keep one running breakdown per algorithm.
    """

    transform_seconds: float = 0.0
    maxflow_seconds: float = 0.0
    prune_seconds: float = 0.0
    queries: int = 0
    #: Per-kernel split of the maxflow phase: run counts and seconds per
    #: engine kernel that executed.
    kernel_runs: dict[str, int] = field(default_factory=dict)
    kernel_seconds: dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_stats(cls, stats: QueryStats) -> "PhaseBreakdown":
        """The breakdown of one answered query."""
        breakdown = cls()
        breakdown.add(stats)
        return breakdown

    def add(self, stats: QueryStats) -> None:
        """Fold one more answered query's stats into the breakdown."""
        phases = stats.phase_seconds()
        self.transform_seconds += phases["transform"]
        self.maxflow_seconds += phases["maxflow"]
        self.prune_seconds += phases["prune"]
        for name, runs in stats.kernel_runs.items():
            self.kernel_runs[name] = self.kernel_runs.get(name, 0) + runs
        for name, seconds in stats.kernel_seconds.items():
            self.kernel_seconds[name] = (
                self.kernel_seconds.get(name, 0.0) + seconds
            )
        self.queries += 1

    @property
    def total_seconds(self) -> float:
        """Measured time across all phases."""
        return self.transform_seconds + self.maxflow_seconds + self.prune_seconds

    def as_dict(self) -> dict[str, object]:
        """JSON-able phase totals (seconds), plus the query count.

        The per-kernel split rides along under ``"kernels"`` when any run
        was attributed to a kernel: ``{name: {"runs": int, "seconds":
        float}}``.
        """
        payload: dict[str, object] = {
            "transform_seconds": self.transform_seconds,
            "maxflow_seconds": self.maxflow_seconds,
            "prune_seconds": self.prune_seconds,
            "total_seconds": self.total_seconds,
            "queries": self.queries,
        }
        if self.kernel_runs or self.kernel_seconds:
            payload["kernels"] = {
                name: {
                    "runs": self.kernel_runs.get(name, 0),
                    "seconds": self.kernel_seconds.get(name, 0.0),
                }
                for name in sorted(
                    set(self.kernel_runs) | set(self.kernel_seconds)
                )
            }
        return payload

    def format(self) -> str:
        """One human line: ``transform 12.3ms (40%) | maxflow ... | ...``.

        When per-kernel accounting recorded anything, a second line breaks
        the maxflow phase down by executed kernel.
        """
        total = self.total_seconds
        parts = []
        for name, seconds in (
            ("transform", self.transform_seconds),
            ("maxflow", self.maxflow_seconds),
            ("prune", self.prune_seconds),
        ):
            share = f" ({seconds / total:.0%})" if total > 0 else ""
            parts.append(f"{name} {seconds * 1000.0:,.1f}ms{share}")
        line = " | ".join(parts)
        if self.kernel_runs or self.kernel_seconds:
            kernels = " | ".join(
                f"{name} {self.kernel_seconds.get(name, 0.0) * 1000.0:,.1f}ms"
                f"/{self.kernel_runs.get(name, 0)} runs"
                for name in sorted(set(self.kernel_runs) | set(self.kernel_seconds))
            )
            line = f"{line}\nkernels: {kernels}"
        return line


def density_profile(
    network: TemporalFlowNetwork,
    source: NodeId,
    sink: NodeId,
    deltas: Sequence[int] | None = None,
) -> list[ProfilePoint]:
    """The optimal density for every requested delta (ascending).

    The deltas are answered as one planner batch
    (:func:`repro.core.planner.answer_planned`): one compile of the
    source's skeleton, and each candidate window's maxflow solved once
    across the whole ladder.

    Args:
        deltas: deltas to evaluate; defaults to a geometric ladder
            1, 2, 4, ... up to the horizon.
    """
    if source not in network or sink not in network:
        raise InvalidQueryError("query endpoints must be in the network")
    horizon = network.t_max - network.t_min
    if horizon < 1:
        return []
    if deltas is None:
        ladder: list[int] = []
        step = 1
        while step <= horizon:
            ladder.append(step)
            step *= 2
        deltas = ladder
    evaluated = [delta for delta in sorted(set(deltas)) if 1 <= delta <= horizon]
    results, _report = answer_planned(
        network,
        [BurstingFlowQuery(source, sink, delta) for delta in evaluated],
    )
    return [
        ProfilePoint(
            delta=delta,
            density=result.density,
            interval=result.interval,
            flow_value=result.flow_value,
        )
        for delta, result in zip(evaluated, results)
    ]


def suggest_delta(
    profile: Sequence[ProfilePoint],
    *,
    max_drop: float = 0.5,
) -> ProfilePoint | None:
    """The knee of a density profile.

    Scans the (ascending-delta) profile and returns the last point whose
    density is still at least ``max_drop`` times the best positive density
    seen at smaller deltas — the longest duration filter that keeps the
    burst recognisable.  ``None`` when the profile has no positive
    density.

    Raises:
        InvalidQueryError: when ``max_drop`` is outside (0, 1].
    """
    if not 0 < max_drop <= 1:
        raise InvalidQueryError(f"max_drop must be in (0, 1], got {max_drop}")
    best_density = 0.0
    knee: ProfilePoint | None = None
    for point in profile:
        if point.density <= 0:
            continue
        best_density = max(best_density, point.density)
        if point.density >= max_drop * best_density:
            knee = point
    return knee
