"""Simulated network interface cards and completion queues.

A :class:`Nic` owns the egress-link serialisation state shared by every
queue pair on the node (writes to different peers still contend for the
same 25 Gb/s port) and the completion queue that selective-signaling
completions land on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.rdma.params import RdmaParams
from repro.sim.engine import Engine


@dataclass(frozen=True)
class Completion:
    """One completion-queue entry.

    ``covers`` is the number of WQEs this entry retires, i.e. 1 (the
    signaled write itself) plus every unsignaled write posted before it
    on the same QP — the batching that selective signaling buys (§2.1).
    """

    qp_peer: int
    wr_id: Any
    covers: int
    posted_at: int
    completed_at: int


class CompletionQueue:
    """FIFO of completions, drained by the owning process's poll loop."""

    def __init__(self) -> None:
        self._entries: list[Completion] = []
        self.total_seen = 0

    def push(self, entry: Completion) -> None:
        self._entries.append(entry)
        self.total_seen += 1

    def drain(self) -> list[Completion]:
        """Remove and return all pending entries."""
        out = self._entries
        self._entries = []
        return out

    def __len__(self) -> int:
        return len(self._entries)


class Nic:
    """One node's RDMA NIC.

    The NIC serialises outgoing wire messages on its link: concurrent
    writes to different peers queue behind each other at line rate.
    Incoming one-sided writes are applied to registered memory with no
    host-CPU involvement.
    """

    def __init__(self, engine: Engine, node_id: int, params: RdmaParams):
        self.engine = engine
        self.node_id = node_id
        self.params = params
        self.tx_free_at: int = 0        # control lane
        self.tx_bulk_free_at: int = 0   # bulk lane (QoS-separated)
        self.cq = CompletionQueue()
        self.tx_bytes: int = 0
        self.tx_msgs: int = 0
        self.powered = True
        #: poll-elision doorbell target: the Process that polls memory
        #: behind this NIC.  When set, every one-sided write applied on
        #: this node (and every completion pushed to its CQ) rings it so
        #: a parked poll loop wakes (see Process.doorbell).
        self.waker: Any = None
        # Cost models are frozen after substrate build; snapshot the
        # per-verb charge and keep each payload size's wire bytes and
        # link time so occupy_tx — called once per write — skips the
        # params indirection entirely.
        self._nic_tx_ns = params.nic_tx_ns
        self._costs: dict[int, tuple[int, int]] = {}   # size -> (wire, tx ns)

    def occupy_tx(self, payload_bytes: int, earliest_ns: int = 0,
                  lane: str = "control", at: Optional[int] = None) -> int:
        """Reserve the egress link for one write; returns the time the
        last bit leaves the NIC.

        ``earliest_ns`` is the moment the posting CPU rings the doorbell
        (it cannot post before its handler work is done).  ``lane``
        selects the QoS class: ``"bulk"`` transfers queue separately so
        control traffic never waits behind them.  Control traffic is a
        few percent of link capacity, so modelling the lanes as
        independent introduces negligible bandwidth error.  ``at``
        replaces both with an explicit doorbell instant, which may lie
        before now: a write materialized after the fact
        (``QueuePair.post_write``)."""
        start = (max(self.engine.now, earliest_ns) if at is None
                 else at) + self._nic_tx_ns
        cost = self._costs.get(payload_bytes)
        if cost is None:
            cost = self._costs[payload_bytes] = (
                self.params.wire_bytes(payload_bytes),
                self.params.tx_serialization_ns(payload_bytes))
        wire, busy = cost
        if lane == "bulk":
            if start < self.tx_bulk_free_at:
                start = self.tx_bulk_free_at
            done = self.tx_bulk_free_at = start + busy
        else:
            if start < self.tx_free_at:
                start = self.tx_free_at
            done = self.tx_free_at = start + busy
        self.tx_bytes += wire
        self.tx_msgs += 1
        probe = self.engine.probe
        if probe is not None:
            probe.nic_tx(self.node_id, lane, start, done, wire)
        return done

    def power_off(self) -> None:
        """Stop this NIC (models crash of the whole host: in-flight
        messages already on the wire still arrive, nothing new leaves and
        nothing new is accepted)."""
        self.powered = False
