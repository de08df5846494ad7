"""A real RDMA client path for Acuerdo (§4.3's external client machine).

The closed-loop clients in :mod:`repro.workloads` model the client hop
as a fixed delay; this module provides the fully simulated alternative:
an external client *process* with its own NIC that deposits requests
into a per-leader :class:`~repro.rdma.mailbox.Mailbox` with one-sided
writes, and receives replies the same way.  The leader polls its
request mailbox as part of its event loop and replies after commit.

Used by the hash-table example and by integration tests that validate
the delay-model clients against the real path (they agree to within the
poll jitter).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.core.cluster import AcuerdoCluster
from repro.substrate import Mailbox
from repro.sim.process import Process, ProcessConfig

_client_ids = itertools.count(1000)


class AcuerdoClientPort(Process):
    """An external RDMA client of an Acuerdo cluster.

    The client is a first-class simulated process: request submission
    costs a doorbell on its CPU, requests cross the fabric as one-sided
    writes, and replies land in the client's own mailbox where its poll
    loop discovers them.
    """

    def __init__(self, cluster: AcuerdoCluster, config: ProcessConfig | None = None):
        node_id = next(_client_ids)
        super().__init__(cluster.engine, node_id, config, name=f"client{node_id}")
        self.cluster = cluster
        fabric = cluster.fabric
        # Reply deposits into the client's mailbox ring its doorbell, so
        # the poll loop can park between replies.
        fabric.add_node(node_id).waker = self
        # Request mailboxes live at every replica (any of them may lead).
        self._req_boxes: dict[int, Mailbox] = {
            nid: Mailbox(fabric, nid, f"req.{node_id}.{nid}")
            for nid in cluster.node_ids}
        self._reply_box = Mailbox(fabric, node_id, f"rep.{node_id}")
        self._next_req = 0
        self._pending: dict[int, Callable[[int], None]] = {}
        self.replies = 0
        # The replicas poll client mailboxes through this registry.
        cluster.register_client_port(self)

    # ------------------------------------------------------------- client API

    def request(self, payload: Any, size_bytes: int,
                on_reply: Optional[Callable[[int], None]] = None) -> int:
        """Send one request to the current leader; returns the request id.

        ``on_reply(req_id)`` fires when the commit acknowledgment lands
        back in the client's mailbox.
        """
        req_id = self._next_req
        self._next_req += 1
        if on_reply is not None:
            self._pending[req_id] = on_reply
        ldr = self.cluster.leader_id()
        target = ldr if ldr is not None else self.cluster.node_ids[0]
        self.cpu.charge(self.cluster.fabric.params.doorbell_cpu_ns)
        self._req_boxes[target].send(self.node_id, (req_id, payload, size_bytes),
                                     size_bytes + 16)
        # request() runs outside on_poll and advances this CPU's
        # busy_until; a parked loop must resume so its poll schedule
        # re-derives from the new busy time exactly as an unparked one.
        self.request_poll()
        return req_id

    def on_poll(self) -> None:
        for _src, (req_id,) in [(s, (p,)) for s, p in self._reply_box.drain()]:
            self.replies += 1
            cb = self._pending.pop(req_id, None)
            if cb is not None:
                cb(req_id)

    def park_ready(self) -> bool:
        # Idle whenever no reply is waiting; reply deposits and request()
        # both ring the doorbell.
        return self._reply_box.backlog == 0

    def request_backlog(self, replica_id: int) -> int:
        """Requests deposited at ``replica_id`` and not yet drained (the
        replica's park-ready predicate checks this)."""
        return self._req_boxes[replica_id].backlog

    # ---------------------------------------------------------- replica side

    def drain_requests_at(self, replica_id: int) -> list[tuple[int, Any, int]]:
        """Called from a replica's poll: pop requests deposited in its
        mailbox.  Non-leaders drop what they find (clients re-send)."""
        return [payload for _src, payload in self._req_boxes[replica_id].drain()]

    def post_reply(self, replica_id: int, req_id: int) -> None:
        """Leader acknowledges a committed request with a one-sided write
        back into the client's mailbox.  It runs outside the replica's
        poll, so the replica's elided heartbeats take the NIC first."""
        self.cluster.trains.catch_up()
        self._reply_box.send(replica_id, req_id, 16)
