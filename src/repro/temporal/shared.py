"""Zero-copy network shipping over POSIX shared memory.

The process-pool engine backends ship the temporal network to workers by
pickling it through ``initializer``/``initargs`` — and, worse, *re-ship
the whole network by rebuilding the pool* every time a streaming append
moves the epoch.  On an append-heavy workload the service spends more
time tearing down and re-initialising worker processes than answering
queries.

:class:`SharedNetworkStore` replaces that with an **append-only edge log
in** :mod:`multiprocessing.shared_memory`:

* the owner (the server process) publishes every committed
  :class:`~repro.temporal.edge.TemporalEdge` as a length-prefixed pickled
  record into a data segment, and maintains a tiny fixed-layout header
  segment carrying ``(epoch, record count, used bytes, generation,
  data-segment name)``;
* each worker attaches both segments **once** (zero-copy: the record
  bytes are mapped, not duplicated per process), replays the log through
  :meth:`~repro.temporal.network.TemporalFlowNetwork.add_edge`, and
  adopts the published epoch;
* after an append the owner writes only the *new* records and bumps the
  header — workers catch up by replaying the suffix at their next task,
  and the pool itself is never rebuilt.

Concurrency contract: exactly one owner writes, and writes never overlap
reads of a *moving* header — the service guarantees this with its
reader/writer lock (appends publish under the writer lock; queries run
under reader locks).  Within that contract the header is written
data-first (records before ``used``/``count`` before ``epoch``), so even
a racing reader can only ever observe a fully published prefix.

The data segment grows by capacity doubling: the owner copies the log
into a fresh, larger segment under a bumped ``generation`` and unlinks
the old one (attached workers keep their mapping alive — POSIX shm
behaves like an unlinked file — and re-attach lazily when they notice
the generation moved).

Resource-tracker note (CPython ``bpo-39959``): readers are always pool
workers inside the owner's process tree, which share the parent's
``multiprocessing`` resource tracker — a worker attach re-registers a
name the owner already registered (a set, so a no-op), and nothing
special happens at worker exit.  The owner holds the single unlink
responsibility (:meth:`SharedNetworkStore.close`); if the owner dies
without closing, the shared tracker reaps the segments at interpreter
shutdown.  Attaching from an *unrelated* process tree (a foreign
tracker) is not supported: that tracker would unlink the owner's
segments when the foreign process exits.
"""

from __future__ import annotations

import pickle
import secrets
import struct
from multiprocessing import shared_memory

from repro.exceptions import ReproError
from repro.temporal.edge import TemporalEdge
from repro.temporal.network import TemporalFlowNetwork

#: Fixed header layout: epoch, record count, used data bytes, generation
#: (little-endian int64 each), then the utf-8 data-segment name padded to
#: the end of the header segment.
_HEADER = struct.Struct("<qqqq")
_NAME_OFFSET = 64
HEADER_SIZE = 256
#: Length prefix of one pickled record.
_LEN = struct.Struct("<I")

#: Initial data-segment capacity (bytes); doubled on demand.
INITIAL_CAPACITY = 1 << 16


def _encode_record(edge: TemporalEdge) -> bytes:
    payload = pickle.dumps(
        (edge.u, edge.v, edge.tau, edge.capacity),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return _LEN.pack(len(payload)) + payload


class SharedNetworkStore:
    """Owner side: publish a network's edge log into shared memory.

    Args:
        network: the live network whose committed state to publish; all
            current edges are written immediately.
        capacity: initial data-segment size in bytes (grows by doubling).

    The store name (:attr:`name`) is what workers pass to
    :class:`SharedNetworkReader` — it travels through pool ``initargs``
    as a short string instead of the whole pickled network.
    """

    def __init__(
        self,
        network: TemporalFlowNetwork,
        *,
        capacity: int = INITIAL_CAPACITY,
    ) -> None:
        self.name = f"repro-net-{secrets.token_hex(6)}"
        #: The last committed epoch — readers adopt it after replay, and
        #: the owner compares it against the live network to detect
        #: mutations that were never published through :meth:`publish`.
        self.epoch = 0
        self._generation = 0
        self._count = 0
        self._used = 0
        self._header = shared_memory.SharedMemory(
            name=self.name, create=True, size=HEADER_SIZE
        )
        self._data = shared_memory.SharedMemory(
            name=self._data_name(), create=True, size=max(capacity, 1024)
        )
        self._closed = False
        self._write_header(epoch=0)
        self.publish(network.edges(), epoch=network.epoch)

    # ------------------------------------------------------------------
    def _data_name(self) -> str:
        return f"{self.name}-d{self._generation}"

    def _write_header(self, *, epoch: int) -> None:
        # Order matters for racing readers: the name/generation and the
        # counters go first, the epoch (the "something changed" signal
        # readers poll) last.
        buf = self._header.buf
        name = self._data_name().encode("utf-8")
        buf[_NAME_OFFSET : _NAME_OFFSET + len(name)] = name
        buf[_NAME_OFFSET + len(name)] = 0
        _HEADER.pack_into(
            buf, 0, epoch, self._count, self._used, self._generation
        )

    def _grow(self, need: int) -> None:
        size = self._data.size
        while size < self._used + need:
            size *= 2
        old = self._data
        self._generation += 1
        fresh = shared_memory.SharedMemory(
            name=self._data_name(), create=True, size=size
        )
        fresh.buf[: self._used] = old.buf[: self._used]
        self._data = fresh
        # Attached workers keep their (now anonymous) mapping until they
        # re-attach; the owner is done with the old segment.
        old.close()
        old.unlink()

    def publish(self, edges, *, epoch: int) -> int:
        """Append ``edges`` to the log and commit the new ``epoch``.

        Returns the number of records written.  Must run while the
        network is quiescent (the service's writer lock).
        """
        if self._closed:
            raise ReproError(f"shared store {self.name} is closed")
        records = [_encode_record(edge) for edge in edges]
        need = sum(len(r) for r in records)
        if need and self._used + need > self._data.size:
            self._grow(need)
        buf = self._data.buf
        for record in records:
            buf[self._used : self._used + len(record)] = record
            self._used += len(record)
        self._count += len(records)
        self._write_header(epoch=epoch)
        self.epoch = epoch
        return len(records)

    @property
    def records(self) -> int:
        """Records published so far."""
        return self._count

    def close(self) -> None:
        """Release and unlink both segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in (self._data, self._header):
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedNetworkStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class SharedNetworkReader:
    """Worker side: a network replayed from a :class:`SharedNetworkStore`.

    Attach once (``SharedNetworkReader(name)``), then call
    :meth:`catch_up` before each task — it replays only the records
    published since the last call and fast-forwards the epoch, so an
    append-heavy stream costs each worker O(new edges), not a network
    rebuild.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._header = shared_memory.SharedMemory(name=name)
        self._data: shared_memory.SharedMemory | None = None
        self._generation = -1
        self._applied = 0
        self._offset = 0
        self.network = TemporalFlowNetwork()
        self.catch_up()

    # ------------------------------------------------------------------
    def _read_header(self) -> tuple[int, int, int, int, str]:
        buf = self._header.buf
        epoch, count, used, generation = _HEADER.unpack_from(buf, 0)
        raw = bytes(buf[_NAME_OFFSET:HEADER_SIZE])
        data_name = raw.split(b"\x00", 1)[0].decode("utf-8")
        return epoch, count, used, generation, data_name

    def _attach_data(self, generation: int, data_name: str) -> None:
        if self._data is not None:
            self._data.close()
        self._data = shared_memory.SharedMemory(name=data_name)
        self._generation = generation

    def catch_up(self) -> int:
        """Replay records published since the last call; returns how many.

        Safe to call redundantly — a no-change poll is two header reads.
        """
        epoch, count, used, generation, data_name = self._read_header()
        if count == self._applied:
            if epoch > self.network.epoch:
                self.network.adopt_epoch(epoch)
            return 0
        if self._data is None or generation != self._generation:
            self._attach_data(generation, data_name)
        buf = self._data.buf
        replayed = 0
        offset = self._offset
        while self._applied < count:
            (length,) = _LEN.unpack_from(buf, offset)
            offset += _LEN.size
            u, v, tau, capacity = pickle.loads(bytes(buf[offset : offset + length]))
            offset += length
            self.network.add_edge(TemporalEdge(u, v, tau, capacity))
            self._applied += 1
            replayed += 1
        self._offset = offset
        if used != offset:  # pragma: no cover - would be a logic bug
            raise ReproError(
                f"shared log {self.name} desynchronised: "
                f"replayed to byte {offset}, owner reports {used}"
            )
        if epoch > self.network.epoch:
            self.network.adopt_epoch(epoch)
        return replayed

    def close(self) -> None:
        """Detach (the owner keeps unlink responsibility)."""
        if self._data is not None:
            self._data.close()
            self._data = None
        self._header.close()

    def __enter__(self) -> "SharedNetworkReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
