"""Baseline — single-edge dynamic Maxflow ([18]/[28]) vs window-level
incrementality (Lemma 3).

The paper argues the dynamic-network incremental Maxflow algorithms
"cannot be adopted directly" to temporal windows: moving a window boundary
inserts a whole *batch* of edges, and per-edge maintenance pays one
augmentation pass per inserted edge, where Lemma 3 pays one per window.
This bench quantifies the gap on real window extensions: both strategies
reach the same Maxflow, but the per-edge adaptation runs one (mostly
fruitless) Dinic pass per inserted capacity edge — each at least a BFS
over the network — versus a single resumed pass for the batch.

The per-edge side runs the object-graph ``dinic`` on the incremental
state's ``to_flow_network()`` export, taken once per extension: the
classical BFS-per-pass Dinic the dynamic-Maxflow papers adapt, so each
fruitless pass costs the full search the paper's argument is about.  The
arena kernel's bidirectional search would shrink that per-pass cost with
a trick orthogonal to the per-edge vs per-window question.  The state itself never runs
a Maxflow on this side, so each export carries only the minimal window's
flow, and the first pass of an extension also re-finds the flow of the
earlier extensions.
"""

from _harness import emit, format_table, timed

from repro.core.incremental import IncrementalTransformedNetwork
from repro.core.skeleton import WindowSkeleton
from repro.datasets import generate_queries, make_dataset
from repro.flownet.algorithms.dinic import dinic


def test_dynamic_per_edge_vs_batch_window_extension(benchmark):
    network = make_dataset("prosper", scale=0.5)
    workload = generate_queries(network, count=3, seed=21)
    delta = workload.delta_for(0.06)

    def extension_plan(source, sink):
        starts = network.ti(source, source, sink)
        if not starts:
            return None
        start = starts[0]
        endings = [
            tau for tau in network.ti(sink, source, sink) if tau > start + delta
        ][:6]
        return (start, endings) if endings else None

    def run_all():
        rows = []
        for index, (source, sink) in enumerate(workload, start=1):
            plan = extension_plan(source, sink)
            if plan is None:
                continue
            start, endings = plan

            def batch():
                state = IncrementalTransformedNetwork(
                    network, source, sink, start, start + delta,
                    skeleton=WindowSkeleton(network, source),
                )
                state.run_maxflow()
                runs = 1
                for tau in endings:
                    state.extend_end(tau)
                    state.run_maxflow()
                    runs += 1
                return state.flow_value(), runs

            def per_edge():
                state = IncrementalTransformedNetwork(
                    network, source, sink, start, start + delta,
                    skeleton=WindowSkeleton(network, source),
                )
                state.run_maxflow()
                runs = 1
                value = state.flow_value()
                for tau in endings:
                    before = state.num_edges
                    state.extend_end(tau)
                    inserted = state.num_edges - before
                    # Per-edge maintenance on the object graph: one
                    # augmentation pass per inserted edge (all but the
                    # first find nothing; each still costs a BFS over the
                    # residual network).
                    export = state.to_flow_network()
                    for _ in range(max(1, inserted)):
                        dinic(
                            export.flow_network,
                            export.source_index,
                            export.sink_index,
                        )
                        runs += 1
                    value = export.flow_value()
                return value, runs

            batch_seconds, (batch_value, batch_runs) = timed(batch)
            edge_seconds, (edge_value, edge_runs) = timed(per_edge)
            assert abs(batch_value - edge_value) < 1e-6
            rows.append(
                (
                    f"Q{index}",
                    len(endings),
                    batch_runs,
                    edge_runs,
                    f"{batch_seconds * 1000:.1f}ms",
                    f"{edge_seconds * 1000:.1f}ms",
                    f"{edge_seconds / max(batch_seconds, 1e-9):.1f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(
        "Baseline - per-edge dynamic maxflow vs Lemma-3 batch insertion",
        format_table(
            (
                "query", "extensions", "batch runs", "per-edge runs",
                "batch", "per-edge", "slowdown",
            ),
            rows,
        ),
    )
    assert rows, "expected at least one query with window extensions"
    # The paper's claim: per-edge maintenance pays many more solver runs.
    for row in rows:
        assert row[3] > row[2]
