"""Network transformation (Section 4.1 of the paper).

The transformation turns the temporal Maxflow problem inside a window
``[tau_s, tau_e]`` into a classical Maxflow problem (Lemma 1):

1. **Timestamp inlining.**  Each temporal node ``u`` becomes a timeline of
   transformed nodes ``<u, tau>`` — one per relevant timestamp — connected
   in time order by infinite-capacity *hold* edges (value may wait at a
   node).
2. **Capacity edges.**  Each temporal edge ``(u, v, tau)`` becomes the edge
   ``<u, tau> -> <v, tau>`` with the same capacity.
3. The classical source/sink are ``<s, tau_s>`` and ``<t, tau_e>``.

Following the paper's construction ("starting from s, we perform a
depth-first traversal on the edges of N_T having timestamps within
[tau_s, tau_e]"), only edges *temporally reachable* from the source are
materialised: an edge ``(u, v, tau)`` enters the transformed network iff
some flow leaving ``s`` at ``tau_s`` could be sitting at ``u`` by time
``tau``.  Unreachable edges cannot carry s-t flow, so skipping them keeps
the transformed network small without affecting the Maxflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import InvalidIntervalError
from repro.flownet.network import EdgeKind, EdgeRef, FlowNetwork
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: Transformed node labels: (temporal node, timestamp).
TransformedNode = tuple[NodeId, Timestamp]


@dataclass(slots=True)
class TransformedNetwork:
    """A transformed flow network ``N_[tau_s, tau_e]`` plus its bookkeeping.

    Attributes:
        flow_network: the underlying classical flow network (mutable;
            the Maxflow solvers operate on it in place).
        source: temporal source node ``s``.
        sink: temporal sink node ``t``.
        tau_s / tau_e: the window this transformation covers.
        source_index / sink_index: indices of ``<s, tau_s>`` / ``<t, tau_e>``.
        source_capacity_arcs: handles of every capacity edge leaving some
            ``<s, tau>`` node — summing their routed flow yields ``|f|``
            regardless of how the network was extended or shrunk.
    """

    flow_network: FlowNetwork
    source: NodeId
    sink: NodeId
    tau_s: Timestamp
    tau_e: Timestamp
    source_index: int
    sink_index: int
    source_capacity_arcs: list[EdgeRef]

    @property
    def num_nodes(self) -> int:
        """``|V'|`` — active transformed nodes."""
        return self.flow_network.num_active_nodes

    @property
    def num_edges(self) -> int:
        """Edge count of the transformed network."""
        return self.flow_network.num_edges

    def flow_value(self) -> float:
        """``|f|`` — flow leaving the active source timeline on capacity edges."""
        network = self.flow_network
        total = 0.0
        for ref in self.source_capacity_arcs:
            if network.is_retired(ref.tail):
                continue
            arc = network.forward_arc(ref)
            if network.is_retired(arc.head):
                continue
            total += network.flow_on(ref)
        return total


def extract_temporal_flow(transformed: TransformedNetwork) -> "TemporalFlow":
    """Lemma 1, constructive direction: classical flow -> temporal flow.

    Reads the flow currently routed on the transformed network's capacity
    edges (each of which remembers its originating temporal edge) and
    assembles the equivalent :class:`~repro.temporal.flow.TemporalFlow`.
    The result can be checked against the temporal-flow axioms with
    :func:`repro.temporal.flow.validate_temporal_flow` — the test-suite
    does exactly that to certify the transformation.
    """
    from repro.temporal.flow import TemporalFlow

    flow = TemporalFlow(
        source=transformed.source,
        sink=transformed.sink,
        tau_s=transformed.tau_s,
        tau_e=transformed.tau_e,
    )
    network = transformed.flow_network
    for tail, arc in network.iter_edges():
        if arc.kind is not EdgeKind.CAPACITY:
            continue
        if network.is_retired(tail) or network.is_retired(arc.head):
            continue
        routed = network.arcs_of(arc.head)[arc.rev].cap
        if routed <= 0:
            continue
        u, v, tau = arc.meta
        flow.set_value(u, v, tau, flow.value_of(u, v, tau) + routed)
    return flow


def build_transformed_network(
    temporal: TemporalFlowNetwork,
    source: NodeId,
    sink: NodeId,
    tau_s: Timestamp,
    tau_e: Timestamp,
) -> TransformedNetwork:
    """Build ``N_[tau_s, tau_e]`` from scratch (the BFQ code path).

    Instantaneous windows (``tau_e == tau_s``) are allowed — they model the
    ``MF[tau, tau]`` comparisons in the core-interval definition — but a
    reversed window is an error.

    Raises:
        InvalidIntervalError: when ``tau_e < tau_s``.
    """
    if tau_e < tau_s:
        raise InvalidIntervalError(f"window [{tau_s}, {tau_e}] is reversed")
    included = reachable_edges(temporal, source, tau_s, tau_e)
    return assemble(temporal, source, sink, tau_s, tau_e, included)


def reachable_edges(
    temporal: TemporalFlowNetwork,
    source: NodeId,
    tau_s: Timestamp,
    tau_e: Timestamp,
    *,
    arrival: dict[NodeId, float] | None = None,
) -> list[tuple[NodeId, NodeId, Timestamp, float]]:
    """Edges in the window usable by flow leaving ``source`` at ``tau_s``.

    Processes window edges in timestamp order, maintaining earliest-arrival
    labels; an edge ``(u, v, tau)`` is *included* iff ``arrival(u) <= tau``.
    Within one timestamp a small worklist handles same-instant chains
    (``s -> a`` and ``a -> b`` both at ``tau``), and the group's included
    edges are emitted in ``edges_in_window`` order.

    Args:
        arrival: optional pre-existing arrival labels to extend (used by the
            incremental structure).  Mutated in place when given.
    """
    if arrival is None:
        arrival = {}
    arrival.setdefault(source, float(tau_s))
    included: list[tuple[NodeId, NodeId, Timestamp, float]] = []
    pending: list[tuple[NodeId, NodeId, Timestamp, float]] = []
    current_tau: Timestamp | None = None

    def flush_timestamp() -> None:
        # Fixpoint over one timestamp: arrivals set at tau enable more
        # edges at the same tau.
        work = list(range(len(pending)))
        taken = [False] * len(pending)
        progressed = True
        while progressed and work:
            progressed = False
            remaining = []
            for k in work:
                u, v, tau, _capacity = pending[k]
                if arrival.get(u, math.inf) <= tau:
                    taken[k] = True
                    if tau < arrival.get(v, math.inf):
                        arrival[v] = float(tau)
                    progressed = True
                else:
                    remaining.append(k)
            work = remaining
        included.extend(item for item, keep in zip(pending, taken) if keep)
        pending.clear()

    for edge in temporal.edges_in_window(tau_s, tau_e):
        if edge.tau != current_tau:
            flush_timestamp()
            current_tau = edge.tau
        pending.append((edge.u, edge.v, edge.tau, edge.capacity))
    flush_timestamp()
    return included


def assemble(
    temporal: TemporalFlowNetwork,
    source: NodeId,
    sink: NodeId,
    tau_s: Timestamp,
    tau_e: Timestamp,
    included: Iterable[tuple[NodeId, NodeId, Timestamp, float]],
) -> TransformedNetwork:
    """Materialise a :class:`TransformedNetwork` from an included-edge list."""
    timelines: dict[NodeId, list[Timestamp]] = {source: [], sink: []}
    per_node_stamps: dict[NodeId, set[Timestamp]] = {source: {tau_s}, sink: {tau_e}}
    # Edges out of the sink or into the source can never carry s-t flow
    # (Ti(s) = TiStamp_out(s), Ti(t) = TiStamp_in(t) in the paper); dropping
    # them keeps |V'| at the paper's size.
    edge_list = [
        (u, v, tau, capacity)
        for (u, v, tau, capacity) in included
        if u != sink and v != source
    ]
    for u, v, tau, _capacity in edge_list:
        per_node_stamps.setdefault(u, set()).add(tau)
        per_node_stamps.setdefault(v, set()).add(tau)

    network = FlowNetwork()
    for node, stamps in per_node_stamps.items():
        timeline = sorted(stamps)
        timelines[node] = timeline
        previous: Timestamp | None = None
        for tau in timeline:
            network.add_node((node, tau))
            if previous is not None:
                network.add_edge_labeled(
                    (node, previous),
                    (node, tau),
                    math.inf,
                    kind=EdgeKind.HOLD,
                    meta=node,
                )
            previous = tau

    source_capacity_arcs: list[EdgeRef] = []
    for u, v, tau, capacity in edge_list:
        ref = network.add_edge_labeled(
            (u, tau), (v, tau), capacity, kind=EdgeKind.CAPACITY, meta=(u, v, tau)
        )
        if u == source:
            source_capacity_arcs.append(ref)

    return TransformedNetwork(
        flow_network=network,
        source=source,
        sink=sink,
        tau_s=tau_s,
        tau_e=tau_e,
        source_index=network.index_of((source, tau_s)),
        sink_index=network.index_of((sink, tau_e)),
        source_capacity_arcs=source_capacity_arcs,
    )
