"""Replica supervision: boot, restart and (for tests) kill replicas.

Two interchangeable replica shapes sit behind one tiny lifecycle
interface (``start`` / ``restart`` / ``terminate`` / ``kill``):

* :class:`InlineReplica` — a :class:`~repro.service.BurstingFlowService`
  living in the coordinator's own event loop, bound to a real ephemeral
  TCP port.  Zero boot cost; what the differential-oracle ``cluster``
  backend and the fast tests use.
* :class:`ProcessReplica` — ``python -m repro.cluster.replica`` as a
  child process.  The real deployment shape: it can be ``kill -9``-ed
  mid-stream (the failover e2e does exactly that), drains on SIGTERM,
  and announces its bound port as one JSON line on stdout::

      {"event": "listening", "host": ..., "port": ..., "replica": ...,
       "epoch": ...}

Either way a replica boots the same way: restore the latest durable
snapshot (when one exists) and stream-replay only the log suffix behind
it (:func:`repro.cluster.replication.bootstrap_network`) into a fresh
network, then serve it.  A restarted replica therefore *cannot* lose
acked appends — they are in the snapshot or the suffix it replays — its
post-boot epoch proves to the coordinator that it caught up, and the
work it does to rejoin is bounded by the suffix length, not by total
history.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any

from repro.exceptions import ReproError
from repro.service.server import BurstingFlowService
from repro.store.log import AppendLog


class ReplicaError(ReproError):
    """A replica failed to boot or announce itself."""


class InlineReplica:
    """An in-process replica service on a real TCP port.

    Args:
        replica_id: stable name (routing hashes it; metrics report it).
        log_path: the shared cluster log to replay at every (re)start.
        snapshots: snapshot directory for bounded rejoin (default: the
            shared :func:`~repro.cluster.replication.default_snapshot_dir`
            convention next to the log).
        service_kwargs: forwarded to :class:`BurstingFlowService`
            (cache sizing, admission bounds, default algorithm, ...).
    """

    mode = "inline"

    def __init__(
        self,
        replica_id: str,
        log_path: str | Path,
        *,
        snapshots: str | Path | None = None,
        **service_kwargs: Any,
    ) -> None:
        from repro.cluster.replication import default_snapshot_dir

        self.replica_id = replica_id
        self.log_path = Path(log_path)
        self.snapshot_dir = (
            Path(snapshots) if snapshots is not None
            else default_snapshot_dir(log_path)
        )
        self.service_kwargs = service_kwargs
        self.service: BurstingFlowService | None = None
        self.address: tuple[str, int] | None = None

    async def start(self) -> tuple[str, int]:
        """Snapshot + suffix bootstrap, boot the service; returns the address."""
        from repro.cluster.replication import bootstrap_network

        from repro.store.snapshot import SnapshotStore

        log = AppendLog(self.log_path)
        try:
            boot = bootstrap_network(log, SnapshotStore(self.snapshot_dir))
        finally:
            log.close()
        self.service = BurstingFlowService(
            boot.network, replica_id=self.replica_id, **self.service_kwargs
        )
        self.service.metrics.observe_recovery(
            boot.replayed_records, from_snapshot=boot.from_snapshot
        )
        self.address = await self.service.start("127.0.0.1", 0)
        return self.address

    async def terminate(self) -> None:
        """Graceful shutdown: drain in-flight work, then stop."""
        if self.service is not None:
            await self.service.drain(timeout=10.0)
            await self.service.stop()
            self.service = None
            self.address = None

    async def kill(self) -> None:
        """Abrupt shutdown (no drain) — the closest in-process crash."""
        if self.service is not None:
            await self.service.stop()
            self.service = None
            self.address = None

    async def restart(self) -> tuple[str, int]:
        """Kill (if running) and boot fresh from the current log."""
        await self.kill()
        return await self.start()


class ProcessReplica:
    """A replica as a ``python -m repro.cluster.replica`` child process.

    Args:
        replica_id / log_path / snapshots: as for :class:`InlineReplica`.
        cache_capacity / max_pending / algorithm: forwarded to
            the child's service via command-line flags.
        boot_timeout: seconds to wait for the listening announcement.
    """

    mode = "process"

    def __init__(
        self,
        replica_id: str,
        log_path: str | Path,
        *,
        snapshots: str | Path | None = None,
        cache_capacity: int = 4096,
        max_pending: int = 64,
        algorithm: str = "bfq*",
        boot_timeout: float = 30.0,
    ) -> None:
        from repro.cluster.replication import default_snapshot_dir

        self.replica_id = replica_id
        self.log_path = Path(log_path)
        self.snapshot_dir = (
            Path(snapshots) if snapshots is not None
            else default_snapshot_dir(log_path)
        )
        self.cache_capacity = cache_capacity
        self.max_pending = max_pending
        self.algorithm = algorithm
        self.boot_timeout = boot_timeout
        self.process: asyncio.subprocess.Process | None = None
        self.address: tuple[str, int] | None = None

    def _command(self) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.cluster._replica_main",
            "--log",
            str(self.log_path),
            "--snapshots",
            str(self.snapshot_dir),
            "--replica-id",
            self.replica_id,
            "--port",
            "0",
            "--cache-capacity",
            str(self.cache_capacity),
            "--max-pending",
            str(self.max_pending),
            "--algorithm",
            self.algorithm,
        ]

    def _environment(self) -> dict[str, str]:
        # The child must import the same repro package as this process,
        # installed or straight off a source tree.
        package_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{package_root}{os.pathsep}{existing}" if existing else package_root
        )
        return env

    async def start(self) -> tuple[str, int]:
        """Spawn the child and wait for its listening announcement."""
        self.process = await asyncio.create_subprocess_exec(
            *self._command(),
            stdout=asyncio.subprocess.PIPE,
            env=self._environment(),
        )
        assert self.process.stdout is not None
        try:
            # asyncio.timeout, not wait_for: 3.11's wait_for can swallow
            # an outside cancellation racing the readline (this runs in
            # rejoin tasks that stop() cancels).
            async with asyncio.timeout(self.boot_timeout):
                line = await self.process.stdout.readline()
        except asyncio.TimeoutError:
            self.process.kill()
            raise ReplicaError(
                f"replica {self.replica_id} did not announce a port "
                f"within {self.boot_timeout}s"
            ) from None
        if not line:
            raise ReplicaError(
                f"replica {self.replica_id} exited before listening "
                f"(rc={self.process.returncode})"
            )
        announcement = json.loads(line)
        if announcement.get("event") != "listening":
            raise ReplicaError(
                f"replica {self.replica_id} announced {announcement!r}"
            )
        self.address = (announcement["host"], announcement["port"])
        return self.address

    async def terminate(self) -> None:
        """SIGTERM — the child drains in-flight work and exits."""
        if self.process is not None and self.process.returncode is None:
            self.process.terminate()
            try:
                async with asyncio.timeout(15.0):
                    await self.process.wait()
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()
        self.process = None
        self.address = None

    async def kill(self) -> None:
        """SIGKILL — the crash the failover e2e injects."""
        if self.process is not None and self.process.returncode is None:
            self.process.kill()
            await self.process.wait()
        self.process = None
        self.address = None

    async def restart(self) -> tuple[str, int]:
        """Kill any stale child and boot a fresh one from the log."""
        await self.kill()
        return await self.start()


# ----------------------------------------------------------------------
# python -m repro.cluster.replica
# ----------------------------------------------------------------------
def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.cluster.replica",
        description="one delta-BFlow cluster replica (boots from the log)",
    )
    parser.add_argument("--log", required=True, type=Path)
    parser.add_argument(
        "--snapshots",
        type=Path,
        default=None,
        help="snapshot directory (default: <log>.snapshots)",
    )
    parser.add_argument("--replica-id", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-capacity", type=int, default=4096)
    parser.add_argument("--max-pending", type=int, default=64)
    parser.add_argument("--algorithm", default="bfq*")
    return parser


async def _serve(args) -> int:
    from repro.cluster.replication import bootstrap_network, default_snapshot_dir

    from repro.store.snapshot import SnapshotStore

    snapshot_dir = args.snapshots or default_snapshot_dir(args.log)
    log = AppendLog(args.log)
    try:
        boot = bootstrap_network(log, SnapshotStore(snapshot_dir))
    finally:
        log.close()
    service = BurstingFlowService(
        boot.network,
        replica_id=args.replica_id,
        cache_capacity=args.cache_capacity,
        max_pending=args.max_pending,
        algorithm=args.algorithm,
    )
    service.metrics.observe_recovery(
        boot.replayed_records, from_snapshot=boot.from_snapshot
    )
    host, port = await service.start(args.host, args.port)
    print(
        json.dumps(
            {
                "event": "listening",
                "host": host,
                "port": port,
                "replica": args.replica_id,
                "epoch": boot.network.epoch,
                "replayed_records": boot.replayed_records,
                "from_snapshot": boot.from_snapshot,
            }
        ),
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    await service.drain(timeout=10.0)
    await service.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cluster.replica``."""
    args = _build_parser().parse_args(argv)
    try:
        return asyncio.run(_serve(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
