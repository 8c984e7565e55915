"""Shared process-pool harness for the batch layers.

:func:`repro.core.batch.answer_many` and the planner's group fan-out both
shard work over a :class:`~concurrent.futures.ProcessPoolExecutor` with
the same discipline; :func:`run_pool` is that discipline, factored out
once:

* worker state travels through ``initializer``/``initargs`` (pickled for
  ``spawn``/``forkserver``, inherited-then-overwritten for ``fork``), so
  every start method produces identical results;
* a :class:`~concurrent.futures.process.BrokenProcessPool` (OOM-killed or
  segfaulted worker) rebuilds the pool once and resubmits only the
  payloads that had not finished; a second crash is systemic and
  propagates;
* an *ordinary* exception from one payload fails the batch fast: queued
  siblings are cancelled (already-running ones cannot be interrupted, but
  their results are discarded with the pool) and a
  :class:`~repro.exceptions.BatchQueryError` identifies exactly which
  item failed.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Sequence

from repro.exceptions import BatchQueryError


def run_pool(
    payloads: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    max_workers: int,
    context: Any,
    initializer: Callable[..., None],
    initargs: tuple,
    describe: Callable[[int], Any] = lambda index: index,
) -> list[Any]:
    """Run ``worker(payload)`` in pool processes; results align with input.

    Args:
        payloads: the work items, submitted in order.
        worker: top-level picklable callable run in the workers.
        max_workers: pool size (capped at the number of pending payloads).
        context: a ``multiprocessing`` context (start method already chosen).
        initializer / initargs: per-process state installation.
        describe: maps a payload index to the object named in the
            :class:`BatchQueryError` raised on failure (default: the index).

    Raises:
        BatchQueryError: a payload raised an ordinary exception; its
            siblings were cancelled.
        BrokenProcessPool: workers died twice (systemic crash).
    """
    results: list[Any] = [None] * len(payloads)
    done = [False] * len(payloads)
    pending = list(range(len(payloads)))
    rebuilt = False
    while pending:
        futures: dict[int, Future] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=min(max_workers, len(pending)),
                mp_context=context,
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                for index in pending:
                    futures[index] = pool.submit(worker, payloads[index])
                for index, future in futures.items():
                    try:
                        results[index] = future.result()
                        done[index] = True
                    except BrokenProcessPool:
                        raise
                    except Exception as exc:
                        # Fail fast: without this, one bad query would
                        # abort the batch while every sibling future ran
                        # to completion inside the executor's __exit__.
                        for other in futures.values():
                            other.cancel()
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise BatchQueryError(index, describe(index), exc) from exc
            pending = []
        except BrokenProcessPool:
            # A worker died (OOM-killed, segfaulted C extension, ...).
            # Harvest everything that finished before the crash and
            # rebuild the pool once for the remainder.
            if rebuilt:
                raise
            rebuilt = True
            for index, future in futures.items():
                if (
                    future.done()
                    and not future.cancelled()
                    and future.exception() is None
                ):
                    results[index] = future.result()
                    done[index] = True
            pending = [i for i in pending if not done[i]]
    return results
