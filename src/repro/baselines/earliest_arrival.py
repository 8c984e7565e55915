"""Earliest-arrival flow baselines (related work [14, 34, 44]).

The related-work section cites the *earliest arrival flow* problem: "to
determine the earliest time that a flow comes from a source node to a sink
node".  These baselines implement the two natural variants on our temporal
flow model, reusing the network transformation:

* :func:`earliest_arrival_time` — the smallest ``tau_e`` such that a
  positive temporal flow reaches the sink by ``tau_e`` (binary search over
  the sink's in-stamps with reachability checks);
* :func:`max_flow_by_deadline` — the maximum temporal flow value achievable
  with all value arriving by a deadline (one transformed-network Maxflow);
* :func:`arrival_profile` — the full step function deadline -> max value,
  evaluated at every sink in-stamp (the classical "earliest arrival flow
  pattern" summary), computed incrementally with the Lemma-3 machinery.

They contrast with delta-BFlow the same way the paper positions them:
earliest-arrival optimises *when* flow can arrive, delta-BFlow optimises
*how concentrated* it is.
"""

from __future__ import annotations

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.skeleton import WindowSkeleton
from repro.exceptions import InvalidQueryError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork
from repro.temporal.reachability import earliest_arrival


def earliest_arrival_time(
    network: TemporalFlowNetwork, source: NodeId, sink: NodeId
) -> Timestamp | None:
    """The earliest time any positive flow from ``source`` reaches ``sink``.

    With positive capacities this equals temporal reachability's earliest
    arrival, so no Maxflow is needed.  Returns ``None`` when unreachable.
    """
    if source not in network or sink not in network:
        raise InvalidQueryError("query endpoints must be in the network")
    arrival = earliest_arrival(network, source)
    value = arrival.get(sink)
    return None if value is None else int(value)


def max_flow_by_deadline(
    network: TemporalFlowNetwork,
    source: NodeId,
    sink: NodeId,
    deadline: Timestamp,
) -> float:
    """Maximum temporal flow value with everything arriving by ``deadline``."""
    if source not in network or sink not in network:
        raise InvalidQueryError("query endpoints must be in the network")
    t_min = network.t_min
    if deadline < t_min:
        return 0.0
    if deadline == t_min:
        # Instantaneous window: only same-instant transfers count, so solve
        # the degenerate window through the static transformation.
        from repro.core.transform import build_transformed_network
        from repro.flownet.algorithms.dinic import dinic

        transformed = build_transformed_network(
            network, source, sink, t_min, t_min
        )
        return dinic(
            transformed.flow_network,
            transformed.source_index,
            transformed.sink_index,
        ).value
    state = IncrementalTransformedNetwork(
        network, source, sink, t_min, deadline,
        skeleton=WindowSkeleton(network, source, sink),
    )
    state.run_maxflow()
    return state.flow_value()


def arrival_profile(
    network: TemporalFlowNetwork, source: NodeId, sink: NodeId
) -> list[tuple[Timestamp, float]]:
    """The step function deadline -> maximum arrived flow value.

    Evaluated at every in-stamp of the sink (the only points where the
    function can step), computed with one incremental window that extends
    through the stamps — each step costs only the *new* augmenting paths
    (Lemma 3), mirroring how BFQ+ sweeps candidate endings.
    """
    if source not in network or sink not in network:
        raise InvalidQueryError("query endpoints must be in the network")
    stamps = list(network.tistamp_in(sink))
    if not stamps:
        return []
    t_min = network.t_min
    profile: list[tuple[Timestamp, float]] = []
    state: IncrementalTransformedNetwork | None = None
    for stamp in stamps:
        if stamp <= t_min:
            from repro.core.transform import build_transformed_network
            from repro.flownet.algorithms.dinic import dinic

            transformed = build_transformed_network(
                network, source, sink, t_min, stamp
            )
            value = dinic(
                transformed.flow_network,
                transformed.source_index,
                transformed.sink_index,
            ).value
            profile.append((stamp, value))
            continue
        if state is None:
            state = IncrementalTransformedNetwork(
                network, source, sink, t_min, stamp,
                skeleton=WindowSkeleton(network, source, sink),
            )
        elif state.tau_e < stamp:
            state.extend_end(stamp)
        state.run_maxflow()
        profile.append((stamp, state.flow_value()))
    return profile
