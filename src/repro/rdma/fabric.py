"""Cluster-wide RDMA wiring: NICs plus all-to-all reliable connections.

The fabric is the ``rdma`` backend of :mod:`repro.substrate`.  It plays
the role of the connection-establishment phase of §2.1 (device exchange,
memory registration, rkey exchange): it creates one NIC per node, a
queue pair for every ordered pair of nodes, and a registry through which
structures (ring buffers, SSTs) register memory and share rkeys.

Besides the one-sided primitives the Acuerdo-family protocols use
directly, the fabric implements the substrate message-channel surface
(``attach``/``send``/``drain``) as a FaRM-style write-based inbox per
endpoint, so substrate-generic code (conformance tests, future
message-passing protocols) can run unchanged over RDMA.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable, Optional

from repro.rdma.memory import MemoryRegion
from repro.rdma.nic import Nic
from repro.rdma.params import RdmaParams
from repro.rdma.qp import QueuePair
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.substrate.interface import Endpoint, Substrate


class RdmaEndpoint(Endpoint):
    """A node's message-channel attachment: a write-based inbox.

    One-sided writes from peers land here without waking the owner's
    CPU; ``drain`` is free of per-message receive charges — the
    substrate-shape contrast with :class:`~repro.net.tcp.TcpEndpoint`.
    """

    def __init__(self, fabric: "RdmaFabric", process: Process):
        self.engine = fabric.engine
        self.process = process
        self.inbox: deque[tuple[int, Any, int]] = deque()
        self._region = fabric.register(process.node_id, "substrate.inbox",
                                       1 << 20, on_write=self.deliver)
        self._rkey = self._region.grant()

    @property
    def node_id(self) -> int:
        return self.process.node_id

    def deliver(self, src: int, payload: Any, size: int) -> None:
        """A one-sided write from ``src`` landed in the inbox region.
        No wakeup: only the owner's next poll observes it."""
        if self.process.crashed:
            return
        self.inbox.append((src, payload, size))

    def drain(self, max_batch: Optional[int] = None) -> list[tuple[int, Any]]:
        """Pop pending messages.  Zero receive-side CPU charge: the data
        is already in registered memory when the poll discovers it."""
        out: list[tuple[int, Any]] = []
        probe = self.engine.probe
        now = self.engine.now
        while self.inbox and (max_batch is None or len(out) < max_batch):
            src, payload, _size = self.inbox.popleft()
            out.append((src, payload))
            if probe is not None:
                probe.mark(payload, "poll_notice", now)
        return out


class RdmaFabric(Substrate):
    """All NICs and queue pairs of one cluster (plus external clients).

    Node ids are small integers.  Clients that talk to the cluster over
    RDMA (the §4.3 hash-table client) are just extra node ids.
    """

    backend = "rdma"

    def __init__(self, engine: Engine, node_ids: Iterable[int],
                 params: Optional[RdmaParams] = None):
        super().__init__(engine, params or RdmaParams())
        # Frozen-cost snapshot: the only send-side CPU RDMA charges.
        self._doorbell_cpu_ns = self.params.doorbell_cpu_ns
        self.nics: dict[int, Nic] = {}
        self.qps: dict[tuple[int, int], QueuePair] = {}
        self._bulk_qps: dict[tuple[int, int], QueuePair] = {}
        self._regions: dict[tuple[int, str], MemoryRegion] = {}
        #: heartbeat trains riding this fabric (``repro.core.trains``),
        #: revalidated when a partition changes which writes get through
        self.trains: Any = None
        for nid in node_ids:
            self.add_node(nid)

    # ---------------------------------------------------------------- wiring

    def add_node(self, node_id: int) -> Nic:
        """Add a node, creating QPs to and from every existing node."""
        if node_id in self.nics:
            return self.nics[node_id]
        nic = Nic(self.engine, node_id, self.params)
        for other_id, other in self.nics.items():
            self.qps[(node_id, other_id)] = QueuePair(self, nic, other)
            self.qps[(other_id, node_id)] = QueuePair(self, other, nic)
        self.nics[node_id] = nic
        return nic

    def attach(self, process: Process) -> RdmaEndpoint:
        """Register ``process``'s write-based inbox endpoint (adding its
        NIC and queue pairs if the node is new to the fabric).  Idempotent,
        like :meth:`add_node`: re-attaching a node returns its existing
        endpoint so peers' cached rkeys and counters stay valid."""
        existing = self.endpoints.get(process.node_id)
        if existing is not None:
            return existing
        nic = self.add_node(process.node_id)
        # Deposits into this node's registered memory ring its poll loop's
        # doorbell (poll elision); protocols that skip attach() bind the
        # waker themselves via fabric.nic(i).waker.
        nic.waker = process
        ep = RdmaEndpoint(self, process)
        self.endpoints[process.node_id] = ep
        return ep

    def qp(self, src: int, dst: int) -> QueuePair:
        """The reliable connection from ``src`` to ``dst``."""
        return self.qps[(src, dst)]

    def bulk_qp(self, src: int, dst: int) -> QueuePair:
        """A separate reliable connection for bulk transfers (lazily
        created).  Large writes ride their own QP — as RDMC-style data
        planes do — so control traffic keeps its FIFO lane to itself."""
        key = (src, dst)
        qp = self._bulk_qps.get(key)
        if qp is None:
            qp = self._bulk_qps[key] = QueuePair(
                self, self.nics[src], self.nics[dst], lane="bulk")
        return qp

    def nic(self, node_id: int) -> Nic:
        return self.nics[node_id]

    def crash_node(self, node_id: int) -> None:
        """Power off a node's NIC (host crash)."""
        self.nics[node_id].power_off()

    def _recut(self, partition: Optional[list[frozenset[int]]]) -> None:
        super()._recut(partition)
        if self.trains is not None:
            self.trains.revalidate()

    # --------------------------------------------------------------- regions

    def register(self, owner: int, name: str, size_bytes: int,
                 on_write: Callable[[Any, Any, int], None]) -> MemoryRegion:
        """Register remote-writable memory on ``owner``; returns region.

        Registering the same (owner, name) twice replaces the old region
        and implicitly revokes its rkey, mirroring re-registration after
        reconnection.
        """
        old = self._regions.get((owner, name))
        if old is not None:
            old.revoke()
        region = MemoryRegion(owner, name, size_bytes, on_write)
        self._regions[(owner, name)] = region
        return region

    def region(self, owner: int, name: str) -> MemoryRegion:
        return self._regions[(owner, name)]

    # ------------------------------------------------------------ primitives

    def write(self, src: int, dst: int, region: MemoryRegion, rkey: int,
              key: Any, value: Any, size_bytes: int, signaled: bool = False,
              wr_id: Any = None, earliest_ns: int = 0,
              lane: str = "control", at: Optional[int] = None) -> Optional[int]:
        """Post a one-sided write from ``src`` into ``region`` on ``dst``.

        ``earliest_ns``: doorbell time — typically the posting process's
        ``cpu.busy_until``, so protocol CPU work delays the wire.
        The caller picks the lane: ``lane="bulk"`` routes over the
        dedicated bulk QP and NIC QoS lane (Derecho's RDMC data plane),
        so control traffic (SST rows, heartbeats, ring metadata) never
        queues behind megabytes of data, as the service levels of real
        RDMA NICs provide.  Ordering is only guaranteed within a lane,
        so structures that rely on FIFO (rings, SSTs) must keep all
        their writes on one lane.  A write on a ``cut`` QP is dropped.

        ``at`` posts an unsignaled write materialized after the fact at
        that instant (see ``QueuePair.post_write``): nothing is
        scheduled, and the landing time is returned for the caller to
        apply.  A heartbeat train (``repro.core.trains``) posts this
        way, never across a cut."""
        qp = self.qps[(src, dst)] if lane != "bulk" else self.bulk_qp(src, dst)
        if qp.cut:
            self._drop_partitioned()
            return None
        return qp.post_write(region, rkey, key, value, size_bytes, signaled,
                             wr_id, earliest_ns, at)

    def send(self, src: int, dst: int, payload: Any, size_bytes: int) -> None:
        """Message-channel send: one one-sided write into the destination
        endpoint's inbox region.  Charges the poster's doorbell CPU (the
        only send-side CPU RDMA involves; a send across a cut pays it
        too, as a real RC post does); both endpoints must have been
        created with :meth:`attach`."""
        byz = self.engine.byz
        if byz is not None and byz.on_net_send(self, src, dst, payload,
                                               size_bytes):
            return
        src_ep = self.endpoints[src]
        dst_ep = self.endpoints[dst]
        if src_ep.process.crashed or not self.nics[src].powered:
            return
        self.write(src, dst, dst_ep._region, dst_ep._rkey, src, payload,
                   size_bytes,
                   earliest_ns=src_ep.process.cpu.charge(self._doorbell_cpu_ns))

    # The inherited loop over send(), bound in this class's namespace
    # because bench/hosttrace.py wraps ``broadcast`` here by name.
    broadcast = Substrate.broadcast

    # ------------------------------------------------------------ accounting

    def _all_qps(self) -> Iterable[QueuePair]:
        return self._connections

    def _raw_counters(self) -> dict[str, int]:
        return {
            "tx_bytes": sum(n.tx_bytes for n in self.nics.values()),
            "tx_msgs": sum(n.tx_msgs for n in self.nics.values()),
            "rx_msgs": sum(qp.delivered for qp in self._all_qps()),
            "retransmits": sum(qp.retransmits for qp in self._all_qps()),
        }
