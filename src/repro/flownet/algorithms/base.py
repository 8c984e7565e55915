"""Common types for Maxflow solvers.

Every solver in :mod:`repro.flownet.algorithms` implements the same
callable shape: given a :class:`~repro.flownet.network.FlowNetwork` and
source/sink node indices, compute a maximum flow and report how it went.

Augmenting-path solvers (Ford-Fulkerson, Edmonds-Karp, Dinic) *mutate the
residual state in place*, which is exactly what the incremental delta-BFlow
algorithms rely on: after a structural change, calling the solver again
finds only the missing augmenting paths (Lemma 3 / Lemma 4).  The
self-contained solvers (push-relabel, LP) work on private copies and only
report the optimal value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.flownet.network import FlowNetwork


@dataclass(slots=True)
class MaxflowRun:
    """Outcome of one solver invocation.

    Attributes:
        value: flow value *added by this run* (for resumable solvers this is
            the increment over whatever flow was already routed).
        augmenting_paths: number of augmenting paths found (0 for
            non-augmenting solvers).
        phases: number of BFS phases / relabel sweeps, solver specific.
        paths: optional recorded augmenting paths, each a list of node
            indices from source to sink (populated only when requested).
        kernel: engine-kernel name that executed this run —
            ``"persistent"`` for every arena run
            (:mod:`repro.flownet.algorithms.dinic_flat_persistent`),
            ``None`` for the classical object-graph solvers.
    """

    value: float
    augmenting_paths: int = 0
    phases: int = 0
    paths: list[list[int]] = field(default_factory=list)
    kernel: str | None = None


class MaxflowSolver(Protocol):
    """Callable protocol implemented by all solvers."""

    def __call__(
        self, network: FlowNetwork, source: int, sink: int
    ) -> MaxflowRun:  # pragma: no cover - protocol definition
        ...
