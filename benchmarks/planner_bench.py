"""Multi-query planner benchmark: shared skeletons vs independent solves.

The planner's bet: real batch workloads are *few pairs, many deltas* —
a delta sweep per suspicious (source, sink) pair, with duplicates from
retries and dashboards.  Grouping by pair amortises the Lemma-2 skeleton
compile, and the per-epoch window memo collapses every candidate window
shared by overlapping deltas into one Maxflow.

This benchmark builds exactly that workload — ``--queries`` queries over
at most ``--pairs`` (source, sink) pairs, each pair swept across
overlapping deltas with repeats — then times:

* **independent**: ``[find_bursting_flow(network, q) for q in batch]``
  (one full default-algorithm solve per query, the only path before the
  planner);
* **shared**: ``answer_planned(network, batch)`` (the planner).

Answers must be byte-identical; the speedup must clear ``--min-speedup``
(default 1.5x) or the run exits non-zero.  ``--output`` writes the
machine-readable report (committed as ``BENCH_PR7.json`` at full scale).

Usage::

    PYTHONPATH=src python benchmarks/planner_bench.py \
        [--dataset ctu13] [--scale 1.0] [--pairs 8] [--queries 64] \
        [--repeats 3] [--min-speedup 1.5] [--output BENCH_PR7.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.core import BurstingFlowQuery, answer_planned, find_bursting_flow
from repro.datasets.queries import generate_queries
from repro.datasets.registry import make_dataset

QUERY_SEED = 711
DELTA_FRACTION = 0.03


def build_workload(network, *, pairs: int, queries: int):
    """``queries`` queries over ``pairs`` pairs, overlapping delta sweep.

    Pair *p*'s sweep starts at ``delta + p`` and steps through
    ``delta + p + (i % 4)`` — neighbouring deltas share most of their
    candidate windows, and every fourth query repeats a delta exactly,
    so both amortisation paths (memo hit within a sweep, whole-query
    duplicate) occur at workload frequencies.
    """
    workload = generate_queries(network, count=pairs, seed=QUERY_SEED)
    delta = workload.delta_for(DELTA_FRACTION)
    batch = []
    position = 0
    while len(batch) < queries:
        pair = workload.pairs[position % len(workload.pairs)]
        offset = (position % len(workload.pairs)) + (position // len(workload.pairs)) % 4
        batch.append(BurstingFlowQuery(pair[0], pair[1], delta + offset))
        position += 1
    return batch


def best_of(repeats: int, runner):
    """Best wall time of ``repeats`` runs; returns (seconds, last result)."""
    best = None
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = runner()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def run_bench(
    *,
    dataset: str,
    scale: float,
    pairs: int,
    queries: int,
    repeats: int,
    min_speedup: float,
) -> dict:
    network = make_dataset(dataset, scale=scale)
    batch = build_workload(network, pairs=pairs, queries=queries)
    distinct_pairs = len({(q.source, q.sink) for q in batch})
    assert len(batch) >= queries
    assert distinct_pairs <= pairs

    independent_s, independent = best_of(
        repeats, lambda: [find_bursting_flow(network, q) for q in batch]
    )
    shared_s, (planned, report) = best_of(
        repeats, lambda: answer_planned(network, batch)
    )

    mismatches = sum(
        1
        for ours, theirs in zip(planned, independent)
        if (ours.density, ours.interval, ours.flow_value)
        != (theirs.density, theirs.interval, theirs.flow_value)
    )
    speedup = independent_s / shared_s if shared_s else float("inf")

    return {
        "benchmark": "multi-query-planner",
        "metric": (
            "wall seconds to answer one batch: independent per-query solves "
            "vs the planner's shared skeletons + window memo (best of "
            f"{repeats})"
        ),
        "mechanism": (
            "queries grouped by (source, sink) share one Lemma-2 skeleton "
            "compile, and a per-epoch memo keyed on (tau_s, tau_e) solves "
            "each candidate window's Maxflow once per group, however many "
            "overlapping deltas and duplicates fold it into their answers"
        ),
        "config": {
            "dataset": dataset,
            "scale": scale,
            "pairs": distinct_pairs,
            "queries": len(batch),
            "repeats": repeats,
            "min_speedup": min_speedup,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp_utc": datetime.now(timezone.utc)
            .replace(microsecond=0)
            .isoformat(),
        },
        "results": {
            "independent": {"wall_s": round(independent_s, 6)},
            "shared": {
                "wall_s": round(shared_s, 6),
                "planner": report.as_dict(),
            },
            "speedup": round(speedup, 3),
            "answer_mismatches": mismatches,
        },
        "checks": {
            "answers_identical": mismatches == 0,
            "speedup_cleared": speedup >= min_speedup,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="ctu13")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--queries", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    report = run_bench(
        dataset=args.dataset,
        scale=args.scale,
        pairs=args.pairs,
        queries=args.queries,
        repeats=args.repeats,
        min_speedup=args.min_speedup,
    )
    payload = json.dumps(report, indent=2)
    if args.output is not None:
        args.output.write_text(payload + "\n")
    print(payload)

    results = report["results"]
    print(
        f"\nindependent {results['independent']['wall_s']:.3f}s -> shared "
        f"{results['shared']['wall_s']:.3f}s ({results['speedup']:.2f}x, "
        f"amortization {results['shared']['planner']['amortization']:.2f} "
        f"windows/Maxflow)",
        file=sys.stderr,
    )
    if not report["checks"]["answers_identical"]:
        print("FAIL: planner answers diverged from independent solves",
              file=sys.stderr)
        return 1
    if not report["checks"]["speedup_cleared"]:
        print(
            f"FAIL: speedup {results['speedup']:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
