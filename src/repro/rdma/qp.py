"""Reliable-connection queue pairs: lossless, FIFO, one-sided writes.

The reliable connection (RC) transport is what Acuerdo's design leans
on (§2.1): messages are delivered exactly once and in order, losses are
recovered by NIC-level go-back-N retransmission (modelled as added
delay), and completions are only generated for writes that explicitly
request them — a later completion retires all earlier unsignaled writes
on the same QP (selective signaling).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import Completion, Nic
from repro.substrate.interface import Connection

if TYPE_CHECKING:  # pragma: no cover
    from repro.rdma.fabric import RdmaFabric


class SendQueueFullError(Exception):
    """Too many un-retired WQEs: the poster failed to signal often enough."""


class QueuePair(Connection):
    """One direction of a reliable connection from ``src`` to ``dst``.

    One-sided writes posted here land in a registered
    :class:`~repro.rdma.memory.MemoryRegion` on the destination host
    without waking its CPU.
    """

    def __init__(self, fabric: "RdmaFabric", src: Nic, dst: Nic,
                 lane: str = "control"):
        self.engine = engine = fabric.engine
        super().__init__(fabric, src.node_id, dst.node_id,
                         engine.rng(f"qp.{src.node_id}->{dst.node_id}"))
        self.src = src
        self.dst = dst
        self.params = params = fabric.params
        self.lane = lane
        self._outstanding = 0  # WQEs not yet retired by a completion
        self._unsignaled_run = 0  # unsignaled writes since last signaled one
        self.posted = 0
        self.delivered = 0
        # Frozen-cost snapshots for the post_write hot path.  The wire
        # sum is int + int, so precomputing it cannot move a timestamp.
        self._post_wire_ns = params.propagation_ns + params.nic_rx_ns
        self._max_send_queue = params.max_send_queue
        self._completion_ns = params.completion_ns

    # ----------------------------------------------------------------- write

    def post_write(self, region: MemoryRegion, rkey: int, key: Any, value: Any,
                   size_bytes: int, signaled: bool = False,
                   wr_id: Any = None, earliest_ns: int = 0,
                   at: Optional[int] = None) -> Optional[int]:
        """Post a one-sided RDMA write of ``value`` to ``region[key]``.

        The write occupies the sender's egress link, crosses the wire,
        and is applied at the destination NIC with no remote-CPU work.
        If ``signaled``, a completion covering this and all earlier
        unsignaled writes is pushed to the sender's CQ once the transport
        ACK returns.

        ``at`` posts an unsignaled write materialized after the fact at
        that instant (which may lie before now): the same posting step,
        but nothing is scheduled, and the landing time is returned for
        the caller to apply.  A heartbeat train (``repro.core.trains``)
        posts this way, in posting order per QP, so the loss stream and
        the FIFO floor see the eager sequence.

        Raises :class:`SendQueueFullError` when more than
        ``params.max_send_queue`` WQEs are outstanding — the failure mode
        selective signaling exists to avoid.
        """
        if not self.src.powered:
            return None  # crashed host: nothing leaves
        if self._outstanding >= self._max_send_queue:
            raise SendQueueFullError(
                f"QP {self.src.node_id}->{self.dst.node_id}: "
                f"{self._outstanding} outstanding WQEs (max {self._max_send_queue})")
        self.posted += 1
        self._outstanding += 1

        tx_done = self.src.occupy_tx(size_bytes, earliest_ns, self.lane, at)
        deliver_at = self.arrival(tx_done + self._post_wire_ns)
        if at is not None:
            # A heartbeat row: no span carrier, and the caller lands it.
            self._unsignaled_run += 1
            return deliver_at
        engine = self.engine
        now = engine.now

        probe = engine.probe
        if probe is not None:
            # Milestones for span-traced carriers (bound payloads only;
            # unbound values — SST rows, counters — miss the dict in O(1)).
            probe.mark(value, "nic_tx", tx_done)
            probe.mark(value, "wire", tx_done + self.params.propagation_ns)
            probe.mark(value, "deposit", deliver_at)

        # No host powers back on, so a landing in a powered-off one
        # could only return: the write occupies the wire and retires
        # like any other, but schedules nothing.
        if self.dst.powered:
            engine.schedule_at(deliver_at, self._deliver, region, rkey, key,
                               value, size_bytes, now)
        if signaled:
            covers = self._unsignaled_run + 1
            self._unsignaled_run = 0
            engine.schedule_at(deliver_at + self._completion_ns, self._complete,
                               wr_id, covers, now)
        else:
            self._unsignaled_run += 1
        return None

    # -------------------------------------------------------------- internal

    def _deliver(self, region: MemoryRegion, rkey: int, key: Any, value: Any,
                 size_bytes: int, posted_at: int = 0) -> None:
        dst = self.dst
        if not dst.powered:
            return  # destination host crashed; write is lost with it
        self.delivered += 1
        quiet = region.remote_write(rkey, key, value, size_bytes)
        # Poll-elision doorbell: a deposit landed in this host's memory
        # (SST row, ring slot, inbox, log region — every one-sided
        # write funnels through here), so wake a parked poll loop —
        # unless the region declared the write quiet, which a parked
        # loop only logs.
        waker = dst.waker
        if waker is not None:
            if quiet:
                waker.quiet_deposit(posted_at, key, value)
            else:
                waker.doorbell(posted_at)

    def _complete(self, wr_id: Any, covers: int, posted_at: int) -> None:
        self._outstanding -= covers
        # A write into a powered-off host was never placed: RC retries
        # until the retry budget dies, so the poster never sees success.
        if self.src.powered and self.dst.powered:
            self.src.cq.push(Completion(qp_peer=self.dst.node_id, wr_id=wr_id,
                                        covers=covers, posted_at=posted_at,
                                        completed_at=self.engine.now))
            # Completions are observed by the poster's poll loop (Mu/DARE
            # treat them as acknowledgments): ring its doorbell too.
            waker = self.src.waker
            if waker is not None:
                waker.doorbell(posted_at)

    @property
    def outstanding(self) -> int:
        """WQEs posted but not yet retired by a completion."""
        return self._outstanding
