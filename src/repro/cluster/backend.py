"""The differential-oracle backend that exercises the full cluster path.

:func:`cluster_bfq` answers a query by standing up a real (if small)
cluster: the case's network is seeded into a temporary append log, two
inline replicas replay it and serve on real TCP ports, and the query is
routed through a :class:`~repro.cluster.coordinator.ClusterCoordinator`
— cold, then again warm (the warm pass must hit the affinity replica's
cache and agree exactly), then once more *after a replicated no-op-free
append path check*: the coordinator's committed epoch must match what
the replicas report.  Registered as the ``"cluster"`` backend in
:mod:`repro.oracle.runner`, it lets the fuzzer diff durable logging,
replication, affinity routing and the epoch fence against the
in-process engines on adversarial cases.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

from repro.core.query import BurstingFlowQuery, BurstingFlowResult
from repro.exceptions import ReproError
from repro.service.protocol import PROTOCOL_VERSION
from repro.store.log import AppendLog
from repro.temporal.network import TemporalFlowNetwork

#: Replicas the oracle cluster runs (inline mode: in-process, real TCP).
ORACLE_REPLICAS = 2


class ClusterBackendError(ReproError):
    """The cluster path produced an error or an inconsistent replay."""


def cluster_bfq(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    *,
    algorithm: str = "bfq*",
) -> BurstingFlowResult:
    """Answer ``query`` through a live 2-replica cluster.

    The cold pass and the warm (cache-hit) replay must agree exactly;
    any divergence, routing failure or epoch disagreement raises
    :class:`ClusterBackendError` (recorded by the differential runner
    as a crash finding).
    """
    return asyncio.run(_roundtrip(network, query, algorithm))


async def _roundtrip(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    algorithm: str,
) -> BurstingFlowResult:
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.replica import InlineReplica
    from repro.cluster.replication import network_edges, seed_log

    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as tmp:
        log_path = Path(tmp) / "cluster.log"
        with AppendLog(log_path) as log:
            seed_log(log, network_edges(network))
        replicas = [
            InlineReplica(f"r{index}", log_path, algorithm=algorithm)
            for index in range(ORACLE_REPLICAS)
        ]
        coordinator = ClusterCoordinator(log_path, replicas)
        await coordinator.start("127.0.0.1", 0)
        try:
            payload = {
                "v": PROTOCOL_VERSION,
                "id": "oracle",
                "op": "query",
                "source": query.source,
                "sink": query.sink,
                "delta": query.delta,
            }
            wire = json.dumps(payload).encode("utf-8")
            cold = json.loads(await coordinator.handle_raw(wire))
            if not cold.get("ok"):
                error = cold.get("error", {})
                raise ClusterBackendError(
                    f"cluster path failed: [{error.get('kind')}] "
                    f"{error.get('message')}"
                )
            warm = json.loads(await coordinator.handle_raw(wire))
            if not warm.get("ok"):
                error = warm.get("error", {})
                raise ClusterBackendError(
                    f"cluster replay failed: [{error.get('kind')}] "
                    f"{error.get('message')}"
                )
            if not warm["result"]["cached"]:
                raise ClusterBackendError(
                    "warm replay missed the affinity replica's cache"
                )
            for field in ("density", "interval", "flow_value"):
                if cold["result"][field] != warm["result"][field]:
                    raise ClusterBackendError(
                        f"cluster replay changed {field}: "
                        f"{cold['result'][field]!r} -> {warm['result'][field]!r}"
                    )
            if cold["result"]["epoch"] != coordinator.committed_epoch:
                raise ClusterBackendError(
                    f"replica answered at epoch {cold['result']['epoch']}, "
                    f"committed is {coordinator.committed_epoch}"
                )
            result = cold["result"]
            interval = result["interval"]
            return BurstingFlowResult(
                density=result["density"],
                interval=tuple(interval) if interval is not None else None,
                flow_value=result["flow_value"],
            )
        finally:
            await coordinator.stop()
