"""The differential-oracle backend that exercises the full serve path.

:func:`service_bfq` answers a query by round-tripping it through every
serving layer *in process*: the request is serialized to protocol bytes,
parsed back, admitted, missed in the cache, solved by an engine worker,
cached, re-requested (the second pass MUST hit the cache and agree), and
the reply bytes are deserialized into a
:class:`~repro.core.query.BurstingFlowResult`.  Registered as the
``"service"`` backend in :mod:`repro.oracle.runner`, it lets the fuzzer
diff serialization, caching and worker dispatch against the in-process
engines on every adversarial case.
"""

from __future__ import annotations

import asyncio
import json

from repro.core.query import BurstingFlowQuery, BurstingFlowResult
from repro.exceptions import ReproError
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.server import BurstingFlowService
from repro.temporal.network import TemporalFlowNetwork


class ServiceBackendError(ReproError):
    """The serve path produced an error or an inconsistent cache replay."""


def service_bfq(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    *,
    algorithm: str = "bfq*",
) -> BurstingFlowResult:
    """Answer ``query`` through the full serialize→cache→worker path.

    The cold pass must miss the cache and the immediate replay must hit
    it with a byte-identical answer; any divergence raises
    :class:`ServiceBackendError` (which the differential runner records
    as a crash finding).
    """
    return asyncio.run(_roundtrip(network, query, algorithm))


async def _roundtrip(
    network: TemporalFlowNetwork,
    query: BurstingFlowQuery,
    algorithm: str,
) -> BurstingFlowResult:
    service = BurstingFlowService(network, algorithm=algorithm, processes=None)
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
        cold = json.loads(await service.handle_raw(wire))
        if not cold.get("ok"):
            error = cold.get("error", {})
            raise ServiceBackendError(
                f"serve path failed: [{error.get('kind')}] {error.get('message')}"
            )
        warm = json.loads(await service.handle_raw(wire))
        if not warm.get("ok"):
            error = warm.get("error", {})
            raise ServiceBackendError(
                f"cache replay failed: [{error.get('kind')}] {error.get('message')}"
            )
        if not warm["result"]["cached"]:
            raise ServiceBackendError("cache replay did not hit the result cache")
        for field in ("density", "interval", "flow_value"):
            if cold["result"][field] != warm["result"][field]:
                raise ServiceBackendError(
                    f"cache replay changed {field}: "
                    f"{cold['result'][field]!r} -> {warm['result'][field]!r}"
                )
        result = cold["result"]
        interval = result["interval"]
        return BurstingFlowResult(
            density=result["density"],
            interval=tuple(interval) if interval is not None else None,
            flow_value=result["flow_value"],
        )
    finally:
        await service.stop()
