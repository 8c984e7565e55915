"""A fixed reference computation that measures the host's current speed.

On a shared host the speed of a CPU changes by a third or more from one
minute to the next, with the load of other tenants, and a whole run can
fall into a slow or a fast period.  The engine workloads therefore time
this probe right before every timed call and report each call's time as
a multiple of the probe's: both slow down together, so the ratio stays
put while the raw times do not.  The ratio is scaled back to
milliseconds with ``probe_reference_ms`` from ``workloads.json``, the
probe's time on a quiet host, so the metric reads as the call's time on
that host.

The probe comes in two sizes: ``full`` (about 0.3 s) brackets engine
calls and set-ups; ``small`` (about 1 ms) runs after every reply of the
serve workloads' load generator, short enough not to hold the
interpreter lock from the other sender for long.

The probe uses nothing from the program under test: it is pure-Python
dictionary, list and integer work (seeded graph construction and
breadth-first searches), the same kind of interpreter work the engine
does, so a change to the program can never move it.
"""

from __future__ import annotations

import random
import time

DEGREE = 4
#: Probe size name -> (graph nodes, breadth-first searches).
SIZES = {"full": (20000, 6), "small": (300, 4)}


def probe(nodes: int, searches: int) -> int:
    """The reference computation; returns a checksum so it is not idle."""
    rng = random.Random(1)
    adjacency = {
        node: [rng.randrange(nodes) for _ in range(DEGREE)] for node in range(nodes)
    }
    reached = 0
    for source in range(searches):
        depth = {source: 0}
        frontier = [source]
        while frontier:
            following = []
            for node in frontier:
                step = depth[node] + 1
                for neighbour in adjacency[node]:
                    if neighbour not in depth:
                        depth[neighbour] = step
                        following.append(neighbour)
            frontier = following
        reached += len(depth)
    return reached


#: Each size's checksum; a different value means the probe changed.
CHECKSUMS = {size: probe(*shape) for size, shape in SIZES.items()}


def timed_probe(size: str = "full") -> tuple[float, float]:
    """Run the probe once; returns its ``(wall, cpu)`` seconds, the CPU
    time of the calling thread only."""
    cpu = time.thread_time()
    start = time.perf_counter()
    if probe(*SIZES[size]) != CHECKSUMS[size]:
        raise RuntimeError("the reference probe computed a different checksum")
    return time.perf_counter() - start, time.thread_time() - cpu


class ProbeChain:
    """Full probes between consecutive pieces of timed work.

    Call :meth:`start` before the work and :meth:`end` after it; ``end``
    returns the mean ``(wall, cpu)`` of the probes right before and right
    after the work.  The probe after one piece is the probe before the
    next, so a piece of work costs one probe.
    """

    def __init__(self) -> None:
        self.last: tuple[float, float] | None = None

    def start(self) -> None:
        if self.last is None:
            self.last = timed_probe()

    def end(self) -> tuple[float, float]:
        before, after = self.last, timed_probe()
        self.last = after
        return (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
