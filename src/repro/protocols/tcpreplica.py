"""The TCP replica skeleton of the message-passing baselines (§4).

ZooKeeper (Zab), etcd (Raft), libpaxos and the Byzantine-tolerant Dolev
and Bracha broadcasts all move bytes the same way: each replica owns one
kernel-TCP endpoint, drains its inbox into a per-protocol dispatch at
every poll, and frames every message with the deployment's per-message
serialization overhead.  :class:`TcpReplica` and :class:`TcpCluster`
hold that plumbing once, so each protocol module keeps only what makes
it that protocol — its messages, its quorums and its timers.

Dolev and Bracha also share a fixed sequencer that numbers slots and the
in-order delivery of those slots: :class:`SequencedReplica` and
:class:`SequencedCluster`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.protocols.base import BroadcastSystem, CommitCallback, Replica
from repro.sim.engine import Engine
from repro.substrate import TcpParams, build_substrate


class TcpReplica(Replica):
    """One replica of a message-passing protocol over TCP.

    Each poll drains the endpoint's inbox into ``_dispatch(src, msg)``,
    then runs the protocol's ``_step()``.  ``_send``/``_bcast`` add
    ``cfg.msg_overhead_bytes`` of framing to every message; a broadcast
    names its destinations, which decides the kernel-send CPU paid and
    the messages counted.
    """

    #: True when a park deadline reads peers' ``crashed`` flags: a crash
    #: then wakes every parked survivor so its deadline re-derives.
    crash_wakes_survivors = False

    def __init__(self, cluster: "TcpCluster", node_id: int, cfg: Any, name: str):
        super().__init__(cluster, node_id, cfg, name=name)
        self.ep = cluster.net.attach(self)

    def on_poll(self) -> None:
        for src, msg in self.ep.drain():
            self._dispatch(src, msg)
        self._step()

    def _dispatch(self, src: int, msg: tuple) -> None:
        raise NotImplementedError

    def _step(self) -> None:
        raise NotImplementedError

    def crash(self) -> None:
        super().crash()
        if self.crash_wakes_survivors:
            for nd in self.cluster.nodes.values():
                if not nd.crashed:
                    nd.request_poll()

    # ------------------------------------------------------------ transport

    def _send(self, dst: int, msg: tuple, size: int) -> None:
        self.cluster.net.send(self.node_id, dst, msg, size + self.cfg.msg_overhead_bytes)

    def _bcast(self, dsts: list[int], msg: tuple, size: int) -> None:
        self.cluster.net.broadcast(self.node_id, dsts, msg,
                                   size + self.cfg.msg_overhead_bytes)

    def _live_peers(self) -> list[int]:
        """Every other node not known to have crashed, in id order."""
        nodes = self.cluster.nodes
        return [p for p in self.cluster.node_ids
                if p != self.node_id and not nodes[p].crashed]


class TcpCluster(BroadcastSystem):
    """A deployment of ``node_class`` replicas over one TCP network,
    configured by ``config`` or a default ``config_class()``."""

    node_class: type
    config_class: type

    def __init__(self, engine: Engine, n: int, config: Any = None,
                 tcp_params: Optional[TcpParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or self.config_class()
        self.net = self.substrate = build_substrate("tcp", engine, params=tcp_params)
        self.quorum = n // 2 + 1
        self.nodes = {i: self.node_class(self, i, self.cfg) for i in self.node_ids}


class SlotSet:
    """A set of slot numbers stored as a watermark plus sparse members:
    every slot in ``[0, floor)`` is a member and ``above`` holds the
    rest, so slots added in near-increasing order cost memory for the
    gaps only, not for every slot ever added."""

    __slots__ = ("floor", "above")

    def __init__(self) -> None:
        self.floor = 0
        self.above: set[int] = set()

    def __contains__(self, s: int) -> bool:
        return 0 <= s < self.floor or s in self.above

    def add(self, s: int) -> None:
        if s == self.floor:
            s += 1
            above = self.above
            while s in above:
                above.remove(s)
                s += 1
            self.floor = s
        elif not 0 <= s < self.floor:
            self.above.add(s)


class SequencedReplica(TcpReplica):
    """A replica of a broadcast whose total order rides the slot numbers
    of a fixed sequencer.

    The sequencer's step takes up to ``cfg.max_requests_per_poll``
    client payloads per poll, numbers each, broadcasts ``_slot_msg`` to
    its live peers and receives its own copy through ``_receive_own``.
    A protocol hands each slot it trusts to ``_deliver_slot``, which
    delivers the in-order prefix; commit callbacks live only at the
    sequencer.  ``quorum_certified`` protocols note each delivery as a
    ``commit`` event for the quorum monitors.
    """

    quorum_certified = False

    def __init__(self, cluster: "SequencedCluster", node_id: int, cfg: Any, name: str):
        super().__init__(cluster, node_id, cfg, name=name)
        # Trusted slots are every slot below next_deliver plus the keys
        # of _buffer (trusted, waiting for a gap below to fill).
        self._buffer: dict[int, Any] = {}         # slot -> deliverable value
        self.next_deliver = 0
        # sequencer-only state
        self.next_slot = 0
        self._cbs: dict[int, CommitCallback] = {}

    def _slot_msg(self, s: int, payload: Any, size: int) -> tuple:
        raise NotImplementedError

    def _receive_own(self, s: int, payload: Any, size: int) -> None:
        raise NotImplementedError

    def _step(self) -> None:
        if self.node_id != self.cluster.sequencer:
            return
        taken = 0
        while self.pending and taken < self.cfg.max_requests_per_poll:
            taken += 1
            payload, size, cb = self.pending.pop(0)
            s = self.next_slot
            self.next_slot += 1
            if cb is not None:
                self._cbs[s] = cb
            self.cpu.charge(self.cfg.request_cpu_ns)
            msg = self._slot_msg(s, payload, size)
            probe = self.engine.probe
            if probe is not None:
                probe.bind(msg, payload)
                probe.mark(payload, "propose", self.engine.now)
            self._bcast(self._live_peers(), msg, size)
            self._receive_own(s, payload, size)
            self.engine.trace.count(f"{self.cluster.name}.send")

    def _trusted(self, s: int) -> bool:
        """True once a value for slot ``s`` has been trusted."""
        return 0 <= s < self.next_deliver or s in self._buffer

    def _deliver_slot(self, s: int, v: Any) -> None:
        """Trust value ``v`` for slot ``s`` (once) and deliver every
        slot now contiguous from ``next_deliver``."""
        if self._trusted(s):
            return
        self._buffer[s] = v
        probe = self.engine.probe
        certified = self.quorum_certified
        sequencer = self.node_id == self.cluster.sequencer
        while self.next_deliver in self._buffer:
            slot = self.next_deliver
            val = self._buffer.pop(slot)
            self.next_deliver += 1
            if certified and probe is not None:
                probe.note(self.cluster, "commit", self.node_id,
                           slot=slot, key=val)
            self.cluster.record_delivery(self.node_id, val)
            if sequencer:
                cb = self._cbs.pop(slot, None)
                if cb is not None:
                    cb(slot)
            self.engine.trace.count(f"{self.cluster.name}.deliver")


class SequencedCluster(TcpCluster):
    """A sequenced-broadcast deployment tolerating ``f < n/3`` Byzantine
    nodes, with node 0 the fixed sequencer."""

    def __init__(self, engine: Engine, n: int, config: Any = None,
                 tcp_params: Optional[TcpParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, config, tcp_params, record_deliveries)
        self.f = (n - 1) // 3
        self.sequencer = 0

    def leader_id(self) -> Optional[int]:
        """The fixed sequencer plays the serving-node role (there is no
        elected leader and no term, so no ``leader`` events)."""
        nd = self.nodes[self.sequencer]
        return None if nd.crashed else self.sequencer
