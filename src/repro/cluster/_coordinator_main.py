"""Child-process entry point for a whole cluster: coordinator + replicas.

``python -m repro.cluster._coordinator_main --log cluster.log --replicas 2``
boots a :class:`~repro.cluster.ClusterCoordinator` over fresh replica
handles, announces the bound client-facing port as one JSON line on
stdout::

    {"event": "listening", "host": ..., "port": ...,
     "committed_epoch": ..., "replayed_records": ..., "from_snapshot": ...}

and serves until SIGTERM/SIGINT (graceful drain) — or until ``kill -9``,
which is exactly what the coordinator-restart e2e and the CI recovery
smoke inject: the process group dies mid-stream, and a fresh coordinator
on the same log + snapshot directory must recover every committed append
from the snapshot manifest and the log suffix alone.

Like :mod:`repro.cluster._replica_main`, this lives in a ``_main``
module the package ``__init__`` never imports, so runpy does not warn.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cluster._coordinator_main",
        description="a delta-BFlow cluster (coordinator + N replicas) "
        "recovering from a shared log + snapshot directory",
    )
    parser.add_argument("--log", required=True, type=Path)
    parser.add_argument(
        "--snapshots",
        type=Path,
        default=None,
        help="snapshot directory (default: <log>.snapshots)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--replicas", type=int, default=2)
    parser.add_argument(
        "--replica-mode", default="inline", choices=["inline", "process"]
    )
    parser.add_argument(
        "--snapshot-every",
        type=int,
        default=None,
        help="checkpoint (snapshot + compaction) after this many "
        "committed appends (default: no automatic checkpoints)",
    )
    parser.add_argument("--cache-capacity", type=int, default=4096)
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--algorithm", default="bfq*")
    parser.add_argument("--fsync", action="store_true")
    return parser


async def _serve(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.replica import InlineReplica, ProcessReplica

    shape = ProcessReplica if args.replica_mode == "process" else InlineReplica
    replicas = [
        shape(
            f"r{index}",
            args.log,
            snapshots=args.snapshots,
            cache_capacity=args.cache_capacity,
            max_pending=args.max_pending,
            algorithm=args.algorithm,
        )
        for index in range(args.replicas)
    ]
    coordinator = ClusterCoordinator(
        args.log,
        replicas,
        fsync=args.fsync,
        snapshot_dir=args.snapshots,
        snapshot_every=args.snapshot_every,
    )
    host, port = await coordinator.start(args.host, args.port)
    print(
        json.dumps(
            {
                "event": "listening",
                "host": host,
                "port": port,
                "committed_epoch": coordinator.committed_epoch,
                "replayed_records": coordinator.recovery["replayed_records"],
                "from_snapshot": coordinator.recovery["from_snapshot"],
            }
        ),
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    await coordinator.drain(timeout=10.0)
    await coordinator.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cluster._coordinator_main``."""
    args = _build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
