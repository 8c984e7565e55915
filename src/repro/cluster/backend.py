"""The differential-oracle backend that exercises the full cluster path.

:func:`cluster_bfq` answers a query by standing up a real (if small)
cluster: the case's network is seeded into a temporary append log, two
inline replicas replay it and serve on real TCP ports, and the query is
routed through a :class:`~repro.cluster.coordinator.ClusterCoordinator`
— cold, then again warm (the warm pass must hit the affinity replica's
cache and agree exactly; the coordinator's committed epoch must match
the epoch the replica answered at), then inside a ``batch`` with an
exact duplicate and a same-source companion to another sink (the
:func:`~repro.core.planner.planner_bfq` companions), whose answers for
the query must equal the single query's exactly.  Registered as the
``"cluster"`` backend in :mod:`repro.oracle.runner`, it lets the fuzzer
diff durable logging, replication, affinity routing, the per-owner
batch scatter and the epoch fence against the in-process engines on
adversarial cases.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

from repro.core.planner import companion_sink
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

    The cold pass, the warm (cache-hit) replay and the query's entries
    in the companion batch must agree exactly; any divergence, routing
    failure or epoch disagreement raises
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

            async def call(payload: dict, what: str) -> dict:
                wire = json.dumps(
                    {"v": PROTOCOL_VERSION, "id": "oracle", **payload}
                ).encode("utf-8")
                reply = json.loads(await coordinator.handle_raw(wire))
                if not reply.get("ok"):
                    error = reply.get("error", {})
                    raise ClusterBackendError(
                        f"{what} failed: [{error.get('kind')}] "
                        f"{error.get('message')}"
                    )
                return reply["result"]

            single = {
                "op": "query",
                "source": query.source,
                "sink": query.sink,
                "delta": query.delta,
            }
            cold = await call(single, "cluster path")
            warm = await call(single, "cluster replay")
            if not warm["cached"]:
                raise ClusterBackendError(
                    "warm replay missed the affinity replica's cache"
                )
            for field in ("density", "interval", "flow_value"):
                if cold[field] != warm[field]:
                    raise ClusterBackendError(
                        f"cluster replay changed {field}: "
                        f"{cold[field]!r} -> {warm[field]!r}"
                    )
            if cold["epoch"] != coordinator.committed_epoch:
                raise ClusterBackendError(
                    f"replica answered at epoch {cold['epoch']}, "
                    f"committed is {coordinator.committed_epoch}"
                )
            # The batch route: the query, an exact duplicate, and (first)
            # the planner oracle's same-source companion to another sink.
            triple = [query.source, query.sink, query.delta]
            other = companion_sink(network, query)
            queries = ([] if other is None else [
                [query.source, other, query.delta]
            ]) + [triple, triple]
            batch = await call({"op": "batch", "queries": queries}, "cluster batch")
            for answer in batch["results"][-2:]:
                for field in ("density", "interval", "flow_value"):
                    if answer[field] != cold[field]:
                        raise ClusterBackendError(
                            f"cluster batch changed {field}: "
                            f"{cold[field]!r} -> {answer[field]!r}"
                        )
            interval = cold["interval"]
            return BurstingFlowResult(
                density=cold["density"],
                interval=tuple(interval) if interval is not None else None,
                flow_value=cold["flow_value"],
            )
        finally:
            await coordinator.stop()
