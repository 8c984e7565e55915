"""The one admitted-read path behind the service's four read ops.

``query``, ``batch``, ``topk`` and ``scan`` all admit (or shed), check
the ``min_epoch`` fence under the reader lock and run their solve under
the request deadline through the same two helpers.  These tests drive
every branch of that path for every read op, and pin its cancellation
contract: a request cancelled in the very tick its solve completes
propagates the cancellation instead of returning a reply, and returns
its admission slot either way.
"""

import asyncio
import threading

import pytest

from repro.exceptions import ReproError
from repro.mining import MiningPipeline, PatternStore
from repro.service import BurstingFlowService
from repro.service.protocol import (
    BatchRequest,
    ErrorReply,
    QueryRequest,
    ScanRequest,
    TopKRequest,
)

READS = {
    "query": lambda **kw: QueryRequest(id="r", source="s", sink="t", delta=2, **kw),
    "batch": lambda **kw: BatchRequest(id="r", queries=(("s", "t", 2),), **kw),
    "topk": lambda **kw: TopKRequest(id="r", pairs=(("s", "t"),), delta=2, k=1, **kw),
    "scan": lambda **kw: ScanRequest(id="r", delta=2, **kw),
}

#: The engine coroutine each engine-backed read op awaits, and a
#: well-formed raw answer for it.
ENGINE = {
    "query": ("answer", (900.0 / 3, (10, 13), 900.0, {})),
    "batch": ("answer_batch", ([(900.0 / 3, (10, 13), 900.0)], {})),
    "topk": ("answer_topk", ()),
}


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.mark.parametrize("op", ["query", "batch", "topk"])
def test_cancellation_racing_the_solve_propagates(burst_network, op):
    """Cancelled in the tick its solve completes: no reply, slot returned."""

    async def scenario():
        service = BurstingFlowService(burst_network)
        method, answer = ENGINE[op]
        release = asyncio.get_running_loop().create_future()

        async def stalled(*_args):
            await release
            return answer

        setattr(service.engine, method, stalled)
        try:
            task = asyncio.create_task(service.handle_request(READS[op]()))
            for _ in range(5):
                await asyncio.sleep(0)
            assert not task.done()
            release.set_result(None)
            task.cancel()
            try:
                reply = await task
            except asyncio.CancelledError:
                reply = None
            return reply, service.admission.inflight
        finally:
            await service.stop()

    reply, inflight = run(scenario())
    assert reply is None, f"cancellation swallowed, {reply!r} returned"
    assert inflight == 0


def _overloaded(service, op, request):
    async def scenario():
        service.admission.admit()  # take the only slot
        try:
            return await service.handle_request(request())
        finally:
            service.admission.release()

    return scenario()


def _stale(service, op, request):
    return service.handle_request(request(min_epoch=service.network.epoch + 1))


def _timeout(service, op, request):
    unblock = threading.Event()
    if op == "scan":
        service.mining.scan = lambda *_args, **_kwargs: unblock.wait(5.0)
    else:

        async def never(*_args):
            await asyncio.sleep(3600)

        setattr(service.engine, ENGINE[op][0], never)

    async def scenario():
        try:
            return await service.handle_request(request(timeout=0.05))
        finally:
            unblock.set()

    return scenario()


def _raises(exc):
    """Make ``op``'s solve (its engine call, or the scan's thread) raise."""

    def case(service, op, request):
        def fail(*_args, **_kwargs):
            raise exc

        async def solve(*_args):
            fail()

        if op == "scan":
            service.mining.scan = fail
        else:
            setattr(service.engine, ENGINE[op][0], solve)
        return service.handle_request(request())

    return case


CASES = {
    "overloaded": _overloaded,
    "stale": _stale,
    "timeout": _timeout,
    "invalid": _raises(ReproError("stubbed invalid input")),
    "internal": _raises(RuntimeError("stubbed crash")),
}


@pytest.mark.parametrize("kind", list(CASES))
@pytest.mark.parametrize("op", list(READS))
def test_error_branch(burst_network, tmp_path, op, kind):
    async def scenario():
        with PatternStore(tmp_path / "patterns") as store:
            service = BurstingFlowService(
                burst_network,
                mining=MiningPipeline(burst_network, store),
                max_pending=1,
            )
            try:
                reply = await CASES[kind](service, op, READS[op])
                return reply, service.metrics.snapshot(), service.admission.inflight
            finally:
                await service.stop()

    reply, snapshot, inflight = run(scenario())
    assert isinstance(reply, ErrorReply), reply
    assert reply.kind == kind, reply
    assert snapshot["errors"] == {kind: 1}
    assert inflight == 0
    if kind == "internal":
        assert reply.message == "RuntimeError: stubbed crash"
