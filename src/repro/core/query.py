"""Query and result types for the delta-BFlow problem.

A :class:`BurstingFlowQuery` is the triple ``(s, t, delta)`` of Definition 2.
A :class:`BurstingFlowResult` is the paper's *binary record*: the flow
density and the bursting interval of the found delta-BFlow, augmented with
the flow value and with :class:`QueryStats` instrumentation that the
benchmark harness uses to regenerate the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from repro.exceptions import InvalidQueryError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork


@dataclass(frozen=True, slots=True)
class BurstingFlowQuery:
    """A delta-BFlow query ``Q = (s, t, delta)``.

    Attributes:
        source: the source node ``s``.
        sink: the sink node ``t``.
        delta: minimum bursting-interval length (in timestamp units,
            ``tau_e - tau_s >= delta``); must be at least 1.
    """

    source: NodeId
    sink: NodeId
    delta: int

    def __post_init__(self) -> None:
        if self.source == self.sink:
            raise InvalidQueryError("source and sink must differ")
        if not isinstance(self.delta, int) or isinstance(self.delta, bool):
            raise InvalidQueryError(f"delta must be an int, got {self.delta!r}")
        if self.delta < 1:
            raise InvalidQueryError(f"delta must be >= 1, got {self.delta}")

    def validate_against(self, network: TemporalFlowNetwork) -> None:
        """Check that both endpoints exist in ``network``."""
        for node in (self.source, self.sink):
            if node not in network:
                raise InvalidQueryError(f"query node {node!r} not in network")


@dataclass(slots=True)
class IntervalSample:
    """One per-candidate-interval measurement (feeds EXP-3 / EXP-4).

    Attributes:
        interval: the candidate ``[tau_s, tau_e]``.
        network_size: ``|V'|`` — active node count of the transformed
            network the Maxflow ran on.
        mode: how the Maxflow was obtained — ``"dinic"`` (from scratch),
            ``"maxflow+"`` (insertion case) or ``"maxflow-"`` (deletion
            case); ``"pruned"`` when Observation 2 skipped the run.
        maxflow_seconds: time spent finding augmenting paths.
        transform_seconds: time spent building/updating the transformed
            network for this candidate.
        flow_value: the Maxflow value known after this candidate.
    """

    interval: tuple[Timestamp, Timestamp]
    network_size: int
    mode: str
    maxflow_seconds: float
    transform_seconds: float
    flow_value: float


@dataclass(slots=True)
class QueryStats:
    """Instrumentation accumulated while answering one query."""

    candidates_enumerated: int = 0
    maxflow_runs: int = 0
    incremental_insertions: int = 0
    incremental_deletions: int = 0
    pruned_intervals: int = 0
    augmenting_paths: int = 0
    transform_seconds: float = 0.0
    maxflow_seconds: float = 0.0
    #: Time spent computing Observation-2 pruning bounds (sink-capacity
    #: window sums and the prune decision) — kept out of transform time so
    #: the phase breakdown attributes each second to the work that caused
    #: it.
    prune_seconds: float = 0.0
    #: Per-kernel accounting: how many maxflow runs each engine kernel
    #: executed and how much wall time they took, keyed by the name
    #: stamped on :attr:`~repro.flownet.algorithms.base.MaxflowRun.kernel`
    #: (always ``"persistent"`` for engine runs).
    kernel_runs: dict[str, int] = field(default_factory=dict)
    kernel_seconds: dict[str, float] = field(default_factory=dict)
    samples: list[IntervalSample] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Transform plus Maxflow plus pruning time."""
        return self.transform_seconds + self.maxflow_seconds + self.prune_seconds

    def phase_seconds(self) -> dict[str, float | dict[str, float]]:
        """The phase breakdown as a plain dict (feeds ``--profile`` and
        the service ``/metrics`` snapshot).  All entries are flat floats
        except ``"kernels"``, a nested per-kernel seconds dict present
        only when per-kernel accounting recorded anything."""
        phases: dict[str, float | dict[str, float]] = {
            "transform": self.transform_seconds,
            "maxflow": self.maxflow_seconds,
            "prune": self.prune_seconds,
        }
        if self.kernel_seconds:
            phases["kernels"] = dict(self.kernel_seconds)
        return phases

    def note_kernel(self, kernel: str | None, seconds: float) -> None:
        """Attribute one maxflow run to the kernel that executed it."""
        if kernel is None:
            return
        self.kernel_runs[kernel] = self.kernel_runs.get(kernel, 0) + 1
        self.kernel_seconds[kernel] = (
            self.kernel_seconds.get(kernel, 0.0) + seconds
        )

    def record_sample(self, sample: IntervalSample) -> None:
        """Append a per-interval sample, accumulating its timings."""
        self.samples.append(sample)
        self.transform_seconds += sample.transform_seconds
        self.maxflow_seconds += sample.maxflow_seconds


def merge_query_stats(parts: Iterable[QueryStats]) -> QueryStats:
    """Merge per-part :class:`QueryStats` into one, field-derived.

    Every counter and timing field declared on the dataclass is summed and
    ``samples`` are concatenated in part order — the merge is driven by
    ``dataclasses.fields`` so a field added later can never be silently
    dropped from merged results (the bug a hand-copied field list once
    had).  Samples are extended directly, *not* replayed through
    :meth:`QueryStats.record_sample`, because the parts'
    ``transform_seconds`` / ``maxflow_seconds`` already include their
    samples' timings; replaying would double-count them.
    """
    merged = QueryStats()
    for part in parts:
        for spec in fields(QueryStats):
            if spec.name == "samples":
                merged.samples.extend(part.samples)
                continue
            value = getattr(part, spec.name)
            if isinstance(value, dict):
                # Per-kernel dicts merge key-wise (counts and seconds both
                # add), not by ``+``.
                target = getattr(merged, spec.name)
                for key, amount in value.items():
                    target[key] = target.get(key, type(amount)()) + amount
                continue
            setattr(merged, spec.name, getattr(merged, spec.name) + value)
    return merged


@dataclass(slots=True)
class BurstingFlowResult:
    """The answer to a delta-BFlow query.

    ``density`` is zero and ``interval`` is ``None`` when no positive flow
    satisfies the delta constraint (including the degenerate case where the
    network's horizon is shorter than delta).
    """

    density: float
    interval: tuple[Timestamp, Timestamp] | None
    flow_value: float
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def found(self) -> bool:
        """Whether a positive-density bursting flow exists."""
        return self.interval is not None and self.density > 0

    def binary_record(self) -> tuple[float, tuple[Timestamp, Timestamp] | None]:
        """The paper's ``(density, [tau_s, tau_e])`` record."""
        return (self.density, self.interval)

    def better_than(self, other: "BurstingFlowResult") -> bool:
        """Strictly higher density than another result."""
        return self.density > other.density
