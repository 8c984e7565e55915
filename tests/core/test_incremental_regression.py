"""Pinned BFQ/BFQ+/BFQ*/planner answers and work counters on replica queries.

The incremental state runs directly on its residual arena, and the kernel's
augmenting paths depend on the order each node's arcs are scanned in.  These
values were recorded before the state moved off the object graph; they pin
the answers *exactly* (``==`` on floats) and the per-query work, so any
change to arc order, pruning, withdrawal or the live node count shows up
here.  ``network_size`` is the sum of ``IntervalSample.network_size`` over
the query's samples (the live ``|V'|`` at every candidate).
"""

import pytest

from repro.core.bfq import bfq
from repro.core.bfq_plus import bfq_plus
from repro.core.bfq_star import bfq_star
from repro.core.planner import planner_bfq
from repro.core.query import BurstingFlowQuery
from repro.datasets import make_dataset

COUNTERS = (
    "candidates_enumerated",
    "maxflow_runs",
    "augmenting_paths",
    "pruned_intervals",
    "incremental_insertions",
    "incremental_deletions",
)

# (dataset, source, sink, delta, algorithm, density, interval, flow value,
#  counters in COUNTERS order, network_size)
PINNED = [
    ("prosper", "n12", "n112", 4, "bfq+", 13.183772340000003, (97, 112),
     197.75658510000005, (130, 73, 57, 57, 62, 0), 155053),
    ("prosper", "n12", "n112", 4, "bfq*", 13.183772340000003, (97, 112),
     197.75658510000005, (130, 73, 57, 57, 72, 10), 164354),
    ("prosper", "n72", "n6", 4, "bfq+", 16.691219664453566, (38, 43),
     83.45609832226783, (94, 49, 165, 45, 30, 0), 54346),
    ("prosper", "n72", "n6", 4, "bfq*", 16.691219664453566, (38, 43),
     83.45609832226783, (94, 49, 165, 45, 47, 17), 58661),
    ("ctu13", "n690", "n281", 9, "bfq+", 1.1191765898291768, (203, 296),
     104.08342285411345, (8, 8, 30, 0, 4, 0), 5218),
    ("ctu13", "n690", "n281", 9, "bfq*", 1.1191765898291768, (203, 296),
     104.08342285411345, (8, 8, 31, 0, 7, 3), 5462),
    # BFQ and the planner solve every candidate from scratch and read the
    # same flow values, so their answers and augmenting paths are identical.
    # The planner answers a window with no included sink in-edge as 0.0
    # without a Maxflow run and counts it as pruned (its size is 0), so
    # its maxflow_runs, pruned_intervals and network_size differ.
    ("prosper", "n12", "n112", 4, "bfq", 13.183772340000003, (97, 112),
     197.75658510000005, (130, 130, 742, 0, 0, 0), 181827),
    ("prosper", "n12", "n112", 4, "planner", 13.183772340000003, (97, 112),
     197.75658510000005, (130, 101, 742, 29, 0, 0), 180778),
    ("prosper", "n72", "n6", 4, "bfq", 16.691219664453566, (38, 43),
     83.45609832226783, (94, 94, 534, 0, 0, 0), 104859),
    ("prosper", "n72", "n6", 4, "planner", 16.691219664453566, (38, 43),
     83.45609832226783, (94, 70, 534, 24, 0, 0), 104206),
    ("ctu13", "n690", "n281", 9, "bfq", 1.1191765898291768, (203, 296),
     104.08342285411345, (8, 8, 30, 0, 0, 0), 5214),
    ("ctu13", "n690", "n281", 9, "planner", 1.1191765898291768, (203, 296),
     104.08342285411345, (8, 4, 30, 4, 0, 0), 5102),
]

ALGORITHMS = {
    "bfq": bfq,
    "bfq+": bfq_plus,
    "bfq*": bfq_star,
    "planner": planner_bfq,
}


@pytest.fixture(scope="module")
def replicas():
    # The full-scale prosper queries are the ones whose BFQ* path count moves
    # when a clone scans any node's arcs in a different order.
    return {
        "prosper": make_dataset("prosper", scale=1.0),
        "ctu13": make_dataset("ctu13", scale=0.5),
    }


@pytest.mark.parametrize(
    "case", PINNED, ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[4]}" for c in PINNED]
)
def test_answers_and_counters_are_pinned(replicas, case):
    (dataset, source, sink, delta, algorithm, density, interval, flow_value,
     counters, network_size) = case
    result = ALGORITHMS[algorithm](
        replicas[dataset], BurstingFlowQuery(source, sink, delta)
    )
    assert result.density == density
    assert result.interval == interval
    assert result.flow_value == flow_value
    stats = result.stats
    assert tuple(getattr(stats, name) for name in COUNTERS) == counters
    assert sum(sample.network_size for sample in stats.samples) == network_size


def test_exact_backends_report_one_flow_value(replicas):
    # Summing a fresh window's flow in the kernel's augmentation order and
    # summing it over the source arcs differ in the last bit here; every
    # backend reads the source arcs.
    query = BurstingFlowQuery("n124", "n169", 4)
    results = {
        name: algorithm(replicas["prosper"], query)
        for name, algorithm in ALGORITHMS.items()
    }
    assert {r.interval for r in results.values()} == {(36, 106)}
    assert {r.density for r in results.values()} == {35.5072528368836}
    assert {r.flow_value for r in results.values()} == {2485.5076985818523}
