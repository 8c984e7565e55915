"""Temporal flows and their validation.

A temporal flow ``F`` assigns a value to each temporal edge.  This module
provides the :class:`TemporalFlow` container plus validators for the three
defining constraints of Section 3.2:

* capacity constraint: ``0 <= F(u, v, tau) <= C_T(u, v, tau)``;
* flow conservation (Eq. 3): over the whole window, inflow equals outflow at
  every node except the source and the sink;
* time constraint (Eq. 4): at every prefix ``[tau_s, tau']`` of the window,
  cumulative inflow dominates cumulative outflow at intermediate nodes
  (a node cannot forward value it has not yet received).

The validators are used by the test-suite to check that flows reconstructed
from transformed-network Maxflows (Lemma 1) are genuine temporal flows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro.exceptions import FlowValidationError
from repro.temporal.edge import NodeId, Timestamp
from repro.temporal.network import TemporalFlowNetwork

#: Numerical slack for float comparisons in validators.
EPSILON = 1e-7


@dataclass
class TemporalFlow:
    """A temporal flow from ``source`` (at ``tau_s``) to ``sink`` (at ``tau_e``).

    ``values`` maps ``(u, v, tau)`` to the flow assigned to that temporal
    edge; absent keys mean zero flow.
    """

    source: NodeId
    sink: NodeId
    tau_s: Timestamp
    tau_e: Timestamp
    values: dict[tuple[NodeId, NodeId, Timestamp], float] = field(default_factory=dict)

    @property
    def interval(self) -> tuple[Timestamp, Timestamp]:
        """The flow's window [tau_s, tau_e]."""
        return (self.tau_s, self.tau_e)

    @property
    def interval_length(self) -> int:
        """Window length tau_e - tau_s."""
        return self.tau_e - self.tau_s

    def value_of(self, u: NodeId, v: NodeId, tau: Timestamp) -> float:
        """``F(u, v, tau)`` (zero when unset)."""
        return self.values.get((u, v, tau), 0.0)

    def set_value(self, u: NodeId, v: NodeId, tau: Timestamp, value: float) -> None:
        """Assign flow to one temporal edge (zero removes the entry)."""
        if value < -EPSILON:
            raise FlowValidationError(f"negative flow on ({u!r},{v!r},{tau}): {value}")
        if value <= EPSILON:
            self.values.pop((u, v, tau), None)
        else:
            self.values[(u, v, tau)] = value

    def flow_value(self) -> float:
        """``|F|`` — total flow leaving the source during the window (Eq. 5)."""
        total = 0.0
        for (u, _v, tau), value in self.values.items():
            if u == self.source and self.tau_s <= tau <= self.tau_e:
                total += value
        return total

    def density(self) -> float:
        """Flow density ``|F| / (tau_e - tau_s)`` (Eq. 6)."""
        length = self.interval_length
        if length <= 0:
            raise FlowValidationError(
                f"degenerate interval [{self.tau_s}, {self.tau_e}] has no density"
            )
        return self.flow_value() / length


def validate_temporal_flow(
    network: TemporalFlowNetwork, flow: TemporalFlow, *, strict: bool = True
) -> None:
    """Check all three temporal-flow constraints, raising on violation.

    Args:
        network: the temporal flow network the flow lives in.
        flow: the flow to validate.
        strict: when true, also verify that the flow value measured at the
            source equals the value measured at the sink (Eq. 5).

    Raises:
        FlowValidationError: describing the first violated constraint.
    """
    _check_capacity(network, flow)
    _check_window(flow)
    balances = _node_time_balances(flow)
    _check_time_constraint(flow, balances)
    _check_conservation(flow, balances)
    if strict:
        _check_value_agreement(flow, balances)


def _check_capacity(network: TemporalFlowNetwork, flow: TemporalFlow) -> None:
    for (u, v, tau), value in flow.values.items():
        if value < -EPSILON:
            raise FlowValidationError(
                f"negative flow {value} on ({u!r}, {v!r}, {tau})"
            )
        capacity = network.capacity(u, v, tau)
        if value > capacity + EPSILON:
            raise FlowValidationError(
                f"flow {value} exceeds capacity {capacity} on ({u!r}, {v!r}, {tau})"
            )


def _check_window(flow: TemporalFlow) -> None:
    if flow.tau_e <= flow.tau_s:
        raise FlowValidationError(
            f"window [{flow.tau_s}, {flow.tau_e}] must satisfy tau_e > tau_s"
        )
    for (u, v, tau), value in flow.values.items():
        if value > EPSILON and not flow.tau_s <= tau <= flow.tau_e:
            raise FlowValidationError(
                f"flow on ({u!r}, {v!r}, {tau}) lies outside "
                f"[{flow.tau_s}, {flow.tau_e}]"
            )


def _node_time_balances(
    flow: TemporalFlow,
) -> Mapping[NodeId, list[tuple[Timestamp, float]]]:
    """Per-node list of (tau, inflow - outflow at tau), sorted by tau."""
    balances: dict[NodeId, dict[Timestamp, float]] = defaultdict(
        lambda: defaultdict(float)
    )
    for (u, v, tau), value in flow.values.items():
        if value <= EPSILON:
            continue
        balances[u][tau] -= value
        balances[v][tau] += value
    return {
        node: sorted(per_tau.items()) for node, per_tau in balances.items()
    }


def _check_time_constraint(
    flow: TemporalFlow, balances: Mapping[NodeId, list[tuple[Timestamp, float]]]
) -> None:
    for node, series in balances.items():
        if node in (flow.source, flow.sink):
            continue
        running = 0.0
        for tau, delta in series:
            running += delta
            if running < -EPSILON * max(1.0, abs(running)) - EPSILON:
                raise FlowValidationError(
                    f"time constraint violated at node {node!r}: cumulative "
                    f"outflow exceeds inflow by {-running} at tau={tau}"
                )


def _check_conservation(
    flow: TemporalFlow, balances: Mapping[NodeId, list[tuple[Timestamp, float]]]
) -> None:
    for node, series in balances.items():
        if node in (flow.source, flow.sink):
            continue
        net = sum(delta for _, delta in series)
        if abs(net) > EPSILON * max(1.0, sum(abs(d) for _, d in series)):
            raise FlowValidationError(
                f"flow conservation violated at node {node!r}: net balance {net}"
            )


def _check_value_agreement(
    flow: TemporalFlow, balances: Mapping[NodeId, list[tuple[Timestamp, float]]]
) -> None:
    out_of_source = -sum(d for _, d in balances.get(flow.source, []))
    into_sink = sum(d for _, d in balances.get(flow.sink, []))
    scale = max(1.0, abs(out_of_source), abs(into_sink))
    if abs(out_of_source - into_sink) > EPSILON * scale:
        raise FlowValidationError(
            f"flow value mismatch: source emits {out_of_source}, "
            f"sink absorbs {into_sink}"
        )
