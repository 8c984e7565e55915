"""Additional property-based suites across subsystems.

* streaming monitor ≡ offline answer on arbitrary time-ordered streams;
* multi-source/multi-sink group queries dominate every pairwise answer;
* the declarative operator algebra matches the live residual network;
* store ingest -> replay -> export round-trips exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BurstingFlowQuery, bfq, find_bursting_flow
from repro.core.operators import capacity_map_of, combine, residual_of, subtract
from repro.extensions import StreamingBurstMonitor, find_group_bursting_flow
from repro.store import GraphStore
from repro.temporal import TemporalEdge, TemporalFlowNetwork


@st.composite
def event_streams(draw):
    """Time-ordered (u, v, tau, capacity) streams on a small node set."""
    num_nodes = draw(st.integers(min_value=3, max_value=6))
    horizon = draw(st.integers(min_value=2, max_value=10))
    count = draw(st.integers(min_value=3, max_value=22))
    events = []
    for _ in range(count):
        u = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        v = draw(st.integers(min_value=0, max_value=num_nodes - 1))
        if u == v:
            continue
        tau = draw(st.integers(min_value=1, max_value=horizon))
        capacity = float(draw(st.integers(min_value=1, max_value=9)))
        events.append((f"n{u}", f"n{v}", tau, capacity))
    events.sort(key=lambda e: e[2])
    return events


@settings(max_examples=40, deadline=None)
@given(event_streams(), st.integers(min_value=1, max_value=4))
def test_streaming_equals_offline(events, delta):
    monitor = StreamingBurstMonitor("n0", "n1", delta)
    monitor.observe_batch(events)
    record = monitor.finalize()
    network = TemporalFlowNetwork.from_tuples(events)
    network.add_node("n0")
    network.add_node("n1")
    if network.num_edges == 0:
        assert not record.found
        return
    offline = find_bursting_flow(network, source="n0", sink="n1", delta=delta)
    assert record.density == pytest.approx(offline.density)


@settings(max_examples=30, deadline=None)
@given(event_streams(), st.integers(min_value=1, max_value=3))
def test_group_query_dominates_pairwise(events, delta):
    network = TemporalFlowNetwork.from_tuples(events)
    for node in ("n0", "n1", "n2", "n3"):
        network.add_node(node)
    if network.num_edges == 0:
        return
    sources = ["n0", "n2"]
    sinks = ["n1", "n3"]
    group = find_group_bursting_flow(network, sources, sinks, delta)
    for s in sources:
        for t in sinks:
            if s == t:
                continue
            pair = find_bursting_flow(network, source=s, sink=t, delta=delta)
            assert group.density >= pair.density - 1e-7, (s, t)


@settings(max_examples=30, deadline=None)
@given(event_streams())
def test_operator_algebra_matches_live_residual(events):
    """residual_of(original, flow) == live residual after Dinic."""
    from repro.core.transform import build_transformed_network
    from repro.flownet import dinic, extract_flow

    network = TemporalFlowNetwork.from_tuples(events)
    network.add_node("n0")
    network.add_node("n1")
    if network.num_edges == 0:
        return
    transformed = build_transformed_network(
        network, "n0", "n1", network.t_min, network.t_max
    )
    fn = transformed.flow_network
    original = capacity_map_of(fn)
    dinic(fn, transformed.source_index, transformed.sink_index)
    live_residual = capacity_map_of(fn)
    flow = {
        (fn.label_of(u), fn.label_of(v)): value
        for (u, v), value in extract_flow(fn).items()
    }
    declarative = residual_of(original, flow)
    for edge, capacity in declarative.items():
        assert live_residual.get(edge, 0.0) == pytest.approx(capacity), edge
    for edge, capacity in live_residual.items():
        assert declarative.get(edge, 0.0) == pytest.approx(capacity), edge


@settings(max_examples=25, deadline=None)
@given(event_streams(), st.integers(min_value=1, max_value=3))
def test_store_round_trip_preserves_answers(tmp_path_factory, events, delta):
    # hypothesis + tmp_path interplay: create a fresh directory per example.
    directory = tmp_path_factory.mktemp("store_prop")
    path = directory / "events.log"
    with GraphStore(path) as store:
        for u, v, tau, capacity in events:
            store.add_relationship(u, v, tau=tau, amount=capacity)
    with GraphStore(path) as revived:
        network, _ = revived.export_network(compact_timestamps=False)
    direct = TemporalFlowNetwork.from_tuples(events)
    for node in ("n0", "n1"):
        network.add_node(node)
        direct.add_node(node)
    if direct.num_edges == 0:
        return
    query = BurstingFlowQuery("n0", "n1", delta)
    assert bfq(network, query).density == pytest.approx(bfq(direct, query).density)
