"""A serial fsync device with group commit.

ZooKeeper and etcd force their transaction logs to stable storage before
acknowledging — the dominant per-op cost that (together with kernel TCP)
puts them orders of magnitude above the RDMA systems in Fig. 8/9.  Both
group-commit: all appends that arrive while a sync is in progress share
the next sync.  That is exactly what this model implements: an fsync
occupies the device for ``fsync_ns``; callbacks queued meanwhile ride
the following flush together.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.engine import Engine, us
from repro.sim.process import Process


class Disk:
    """One node's transaction-log device.

    ``owner`` is the process whose log this is (None for a stand-alone
    device): a completion rings its poll doorbell, and a crashed owner's
    device completes nothing.
    """

    def __init__(self, engine: Engine, fsync_ns: int = us(150), name: str = "disk",
                 owner: Optional[Process] = None):
        self.engine = engine
        self.fsync_ns = fsync_ns
        self.name = name
        self.owner = owner
        self._busy = False
        self._waiting: list[Callable[[], None]] = []
        self.syncs = 0

    def append(self, on_durable: Callable[[], None]) -> None:
        """Queue a log append; ``on_durable`` fires once it is synced.
        Appends issued while the device is busy share one group commit."""
        self._waiting.append(on_durable)
        if not self._busy:
            self._start_sync()

    def _start_sync(self) -> None:
        self._busy = True
        batch, self._waiting = self._waiting, []
        self.syncs += 1
        self.engine.schedule(self.fsync_ns, self._finish, batch)

    def _finish(self, batch: list[Callable[[], None]]) -> None:
        owner = self.owner
        if owner is not None:
            if owner.crashed:
                # The host died mid-sync: nothing it had queued became
                # durable, and nobody is left to be told.
                self._waiting.clear()
                self._busy = False
                return
            # The callbacks mutate the owner outside its poll loop (ACK
            # sends, commit advancement, CPU charges): ring first, so a
            # parked loop's already-due poll keeps its tick under the
            # old CPU state (see Process.request_poll).
            owner.request_poll()
        for cb in batch:
            cb()
        if self._waiting:
            self._start_sync()
        else:
            self._busy = False

    @property
    def queue_depth(self) -> int:
        """Appends waiting for the next flush (excludes the one in flight)."""
        return len(self._waiting)
