"""The server child of the serve workloads.

    python3 perfbench/bench_child.py --target service|cluster \
        --dataset bayc --scale 1.0 --workdir DIR [--spans FILE]

Boots a :class:`~repro.service.server.BurstingFlowService` with a
:class:`~repro.mining.MiningPipeline`, or a
:class:`~repro.cluster.ClusterCoordinator` over two
:class:`~repro.cluster.InlineReplica` services (append log flushed per
append, fsync off), on an ephemeral localhost port.  It prints one JSON
line ``{"port": ...}`` once it serves, and stops when a line arrives on
stdin (or stdin closes).  With ``--spans`` the benchmark's layer
wrappers are installed after boot and the recorded spans are written to
that file on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
from pathlib import Path

import bench_trace

#: Span ids of the child start here, clear of the benchmark process's own.
CHILD_SPAN_IDS = 10**9


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--target", choices=("service", "cluster"), required=True)
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--replicas", type=int, default=2)
    return parser.parse_args(argv)


async def _wait_for_stdin() -> None:
    loop = asyncio.get_running_loop()
    done = loop.create_future()

    def reader() -> None:
        sys.stdin.readline()
        loop.call_soon_threadsafe(done.set_result, None)

    # A plain thread, not an executor: it must not show up as pool work.
    threading.Thread(target=reader, daemon=True).start()
    await done


async def _serve(args: argparse.Namespace) -> None:
    from repro.datasets.registry import make_dataset

    network = make_dataset(args.dataset, scale=args.scale)
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.target == "service":
        from repro.mining.pipeline import MiningPipeline
        from repro.mining.store import PatternStore
        from repro.service.server import BurstingFlowService

        mining = MiningPipeline(network, PatternStore(args.workdir / "patterns"))
        server = BurstingFlowService(network, mining=mining, max_pending=256)
        services = [server]
    else:
        from repro.cluster import ClusterCoordinator, InlineReplica, seed_log
        from repro.cluster.replication import network_edges
        from repro.store.log import AppendLog

        log_path = args.workdir / "cluster.log"
        log = AppendLog(log_path)
        try:
            seed_log(log, network_edges(network))
        finally:
            log.close()
        replicas = [
            InlineReplica(f"r{i}", log_path, max_pending=256)
            for i in range(args.replicas)
        ]
        server = ClusterCoordinator(
            log_path,
            replicas,
            fsync=False,
            patterns_dir=args.workdir / "patterns",
        )
        services = None
    host, port = await server.start("127.0.0.1", 0)
    if services is None:
        services = [replica.service for replica in replicas]

    tracer = None
    if args.spans is not None:
        tracer = bench_trace.Tracer(id_offset=CHILD_SPAN_IDS)
        bench_trace.install(tracer)
        for service in services:
            bench_trace.trace_service_pools(tracer, service)
        asyncio.get_running_loop().set_default_executor(
            bench_trace.TracedExecutor(tracer)
        )
    print(json.dumps({"port": port, "host": host}), flush=True)
    try:
        await _wait_for_stdin()
    finally:
        await server.stop()
        if tracer is not None:
            tracer.dump(args.spans)


def main(argv: list[str] | None = None) -> int:
    asyncio.run(_serve(_parse(argv)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
