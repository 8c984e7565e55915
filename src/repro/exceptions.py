"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  The subclasses are deliberately fine grained:
each one corresponds to a distinct misuse of the public API or a distinct
invariant violation detected at runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class GraphError(ReproError):
    """Structural misuse of a graph object (unknown node, bad edge, ...)."""


class UnknownNodeError(GraphError):
    """An operation referenced a node that is not part of the network."""

    def __init__(self, node: object) -> None:
        super().__init__(f"unknown node: {node!r}")
        self.node = node


class InvalidEdgeError(GraphError):
    """An edge definition violates the network's constraints."""


class InvalidCapacityError(InvalidEdgeError):
    """An edge was given a non-positive or non-finite capacity."""

    def __init__(self, capacity: object) -> None:
        super().__init__(f"capacity must be a positive finite number, got {capacity!r}")
        self.capacity = capacity


class InvalidTimestampError(InvalidEdgeError):
    """A temporal edge was given a timestamp outside the network horizon."""

    def __init__(self, timestamp: object, detail: str = "") -> None:
        message = f"invalid timestamp: {timestamp!r}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)
        self.timestamp = timestamp


class InvalidQueryError(ReproError):
    """A delta-BFlow query is malformed (e.g. s == t or delta < 1)."""


class ScanQueryError(ReproError):
    """One (source, sink, delta) combination of a detector sweep failed.

    Raised by :meth:`repro.anomaly.detector.BurstDetector.scan` (in its
    default fail-fast mode) so a failing combination names itself
    instead of aborting the sweep with a bare engine exception.

    Attributes:
        source / sink / delta: the failing combination.
    """

    def __init__(
        self,
        source: object,
        sink: object,
        delta: int,
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"scan query ({source!r} -> {sink!r}, delta={delta}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.source = source
        self.sink = sink
        self.delta = delta


class InvalidIntervalError(ReproError):
    """A time interval [tau_s, tau_e] is malformed or outside the horizon."""


class FlowValidationError(ReproError):
    """A (temporal) flow violates capacity, conservation or time constraints.

    Raised by the flow validators in :mod:`repro.temporal.flow` and
    :mod:`repro.flownet.residual` when an alleged flow is inconsistent.
    """


class SolverError(ReproError):
    """A maxflow solver could not produce a result (e.g. LP infeasible)."""


class DatasetError(ReproError):
    """A dataset could not be generated, parsed, or found in the registry."""


class TruncatedHistoryError(DatasetError):
    """A log read asked for records that compaction already truncated away.

    Raised by :meth:`repro.store.AppendLog.replay` when ``from_offset``
    falls before the log's base offset — the caller must restore from the
    snapshot that drove the compaction instead of replaying the log.
    """
