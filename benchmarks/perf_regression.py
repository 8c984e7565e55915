"""Perf-regression harness for shared-memory network shipping.

One experiment, selected with ``--experiment shm``: an append-heavy
service microbench comparing the shared-memory edge log
(:mod:`repro.temporal.shared`, pool workers replay only the appended
records) against per-epoch pool rebuilds (tear the pool down and
re-pickle the network on every append) — the pool's fallback where
shared memory cannot be created, reached here by making the store's
construction fail.  Each cycle appends a few edges
and immediately queries; the per-cycle state-refresh overhead is the
cycle time minus the warm solve time.

The JSON written to ``--output`` records the raw numbers (see
docs/benchmarks.md for the schema); CI's kernel-smoke job runs a reduced
configuration of this script and uploads the artifact.  The committed
``BENCH_PR2.json``, ``BENCH_PR4.json`` and ``BENCH_PR9.json`` are
historical records of kernel and transform experiments whose code has
since been removed; this script no longer writes them.

Usage::

    PYTHONPATH=src python benchmarks/perf_regression.py \
        [--experiment shm] [--output FILE.json] [--scale 1.0] \
        [--shm-cycles 8]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.datasets.queries import generate_queries
from repro.datasets.registry import make_dataset

#: Same workload seed and delta fraction as the EXP benchmarks.
QUERY_SEED = 648
DELTA_FRACTION = 0.03


def _shm_section(shm_cycles: int, shm_scale: float):
    """Append-heavy refresh cost: shared-memory publish vs pool rebuild.

    The shared log should eliminate nearly all of the refresh cost (no
    pool teardown, no network re-pickle — workers replay only the
    appended records).
    """
    import asyncio

    from repro.service import workers
    from repro.temporal.edge import TemporalEdge

    def no_shared_memory(network):
        raise OSError("shared memory off for the rebuild baseline")

    async def measure(shared: bool) -> dict:
        network = make_dataset("ctu13", scale=shm_scale)
        workload = generate_queries(network, count=2, seed=QUERY_SEED)
        source, sink = workload.pairs[0]
        delta = workload.delta_for(DELTA_FRACTION)
        store_class = workers.SharedNetworkStore
        if not shared:
            workers.SharedNetworkStore = no_shared_memory
        try:
            pool = workers.ProcessEnginePool(
                network, processes=2, mp_context="fork"
            )
        finally:
            workers.SharedNetworkStore = store_class
        assert pool.shared == shared
        try:
            await pool.answer(source, sink, delta, "bfq*")  # warm
            warm_start = time.perf_counter()
            warm_solves = 3
            for _ in range(warm_solves):
                await pool.answer(source, sink, delta, "bfq*")
            warm_s = (time.perf_counter() - warm_start) / warm_solves
            tau = network.t_max
            cycle_start = time.perf_counter()
            for cycle in range(shm_cycles):
                fresh = [
                    TemporalEdge(source, f"shmb{cycle}_{i}", tau + cycle + 1, 1.0)
                    for i in range(4)
                ]
                for edge in fresh:
                    network.add_edge(edge)
                pool.mark_stale(fresh if shared else None)
                await pool.answer(source, sink, delta, "bfq*")
            cycles_s = time.perf_counter() - cycle_start
            refresh_s = max(cycles_s - shm_cycles * warm_s, 0.0) / shm_cycles
            return {
                "warm_solve_s": warm_s,
                "cycle_total_s": cycles_s,
                "refresh_per_append_s": refresh_s,
            }
        finally:
            pool.close()

    rebuild = asyncio.run(measure(False))
    shm = asyncio.run(measure(True))
    eliminated = 1.0 - (
        shm["refresh_per_append_s"]
        / max(rebuild["refresh_per_append_s"], 1e-12)
    )
    return {
        "dataset": "ctu13",
        "cycles": shm_cycles,
        "rebuild": rebuild,
        "shared": shm,
        "refresh_eliminated": eliminated,
    }


def run_shm_benchmark(*, shm_cycles: int = 8, shm_scale: float = 1.0) -> dict:
    """Shared-memory publish vs pool rebuild; returns the report."""
    return {
        "benchmark": "shm-refresh-per-append",
        "metric": (
            "per-append worker state-refresh seconds, shared-memory log vs "
            "pool rebuild"
        ),
        "baseline": "pool rebuild per epoch",
        "candidate": "shared-memory edge log",
        "config": {
            "query_seed": QUERY_SEED,
            "delta_fraction": DELTA_FRACTION,
            "shm_cycles": shm_cycles,
            "shm_scale": shm_scale,
        },
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "timestamp_utc": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
        },
        "shm": _shm_section(shm_cycles, shm_scale),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--experiment",
        default="shm",
        choices=["shm"],
        help="shm: shared-memory edge log vs per-epoch pool rebuild",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path("BENCH_shm.json"),
        help="where to write the JSON report (default: ./BENCH_shm.json)",
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--shm-cycles",
        type=int,
        default=8,
        help="append+query cycles per side (default: 8)",
    )
    args = parser.parse_args(argv)

    report = run_shm_benchmark(shm_cycles=args.shm_cycles, shm_scale=args.scale)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    shm = report["shm"]
    print(
        f"shm refresh/append: rebuild"
        f" {shm['rebuild']['refresh_per_append_s'] * 1e3:.1f}ms ->"
        f" shared {shm['shared']['refresh_per_append_s'] * 1e3:.1f}ms"
        f" ({shm['refresh_eliminated'] * 100:.0f}% eliminated) ({args.output})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
