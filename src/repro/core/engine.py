"""Unified front door for delta-BFlow queries.

:func:`find_bursting_flow` dispatches to BFQ / BFQ+ / BFQ* (or a baseline
registered under :data:`ALGORITHMS`) and is the API most applications
should use::

    from repro import find_bursting_flow, BurstingFlowQuery

    result = find_bursting_flow(network, BurstingFlowQuery("alice", "mallory", 5))
    print(result.density, result.interval)
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.naive import naive_bfq
from repro.baselines.networkx_backend import networkx_bfq
from repro.core.bfq import bfq
from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.query import BurstingFlowQuery, BurstingFlowResult
from repro.exceptions import InvalidQueryError
from repro.temporal.edge import NodeId
from repro.temporal.network import TemporalFlowNetwork


def _networkx_bfq(
    network: TemporalFlowNetwork, query: BurstingFlowQuery, **kwargs
) -> BurstingFlowResult:
    """Guarded wrapper so the engine works without networkx installed."""
    try:
        import networkx  # noqa: F401
    except ImportError:
        raise InvalidQueryError(
            "algorithm 'networkx' requires the optional networkx package"
        ) from None
    return networkx_bfq(network, query, **kwargs)


ALGORITHMS: dict[str, Callable[..., BurstingFlowResult]] = {
    "bfq": bfq,
    "bfq+": bfq_plus,
    "bfq*": bfq_star,
    # Reference baselines — exact but slow; for cross-checks and benchmarks.
    "naive": naive_bfq,
    "networkx": _networkx_bfq,
}

#: The default (fastest exact) solution.
DEFAULT_ALGORITHM = "bfq*"


def get_algorithm(name: str) -> Callable[..., BurstingFlowResult]:
    """Resolve a delta-BFlow algorithm by name (case-insensitive).

    Raises:
        InvalidQueryError: for unknown names.
    """
    try:
        return ALGORITHMS[name.lower()]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise InvalidQueryError(
            f"unknown algorithm {name!r}; known: {known}"
        ) from None


def find_bursting_flow(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery | None = None,
    *,
    source: NodeId | None = None,
    sink: NodeId | None = None,
    delta: int | None = None,
    algorithm: str = DEFAULT_ALGORITHM,
    **kwargs,
) -> BurstingFlowResult:
    """Find the delta-BFlow for a query.

    The query can be given either as a :class:`BurstingFlowQuery` or via
    the ``source``/``sink``/``delta`` keywords.

    Args:
        network: the temporal flow network to query.
        query: a prepared query object (mutually exclusive with keywords).
        source / sink / delta: inline query parameters.
        algorithm: ``"bfq"``, ``"bfq+"``, ``"bfq*"`` (default), or a
            reference baseline — ``"naive"`` (brute-force window
            enumeration) or ``"networkx"`` (BFQ with NetworkX Maxflow).
            BFQ/BFQ+/BFQ* compile the query's window skeleton once and
            run the persistent arena Dinic on every window.
        **kwargs: forwarded to the algorithm (e.g. ``use_pruning=False``
            for the incremental solutions).

    Returns:
        The best :class:`BurstingFlowResult` (density 0 / interval ``None``
        when no qualifying flow exists).
    """
    if query is None:
        if source is None or sink is None or delta is None:
            raise InvalidQueryError(
                "provide either a BurstingFlowQuery or source, sink and delta"
            )
        query = BurstingFlowQuery(source, sink, delta)
    elif source is not None or sink is not None or delta is not None:
        raise InvalidQueryError(
            "pass either a query object or keywords, not both"
        )
    return get_algorithm(algorithm)(network, query, **kwargs)
