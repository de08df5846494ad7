"""Dolev reliable broadcast over TCP — the path-redundancy baseline.

Dolev's protocol (Dolev 1982) tolerates ``f < n/3`` Byzantine nodes in
a point-to-point network with *no* signatures by flooding each message
along with the path it travelled: a receiver trusts a (slot, value)
pair once it arrives directly from the source, or over ``f + 1``
pairwise node-disjoint relay paths — at most ``f`` of which can contain
a liar, so at least one path carried the truth.

Two modelling notes that matter to the adversary harness:

- a receiver folds the *transport-level sender* into every claimed
  path (``{src} ∪ P``): a relayer can fabricate the path list it
  forwards, but it cannot remove itself from the route the message
  actually took, so forged paths all share the forger and can never
  look disjoint (the ``inflate`` attack starves);
- the source itself may equivocate — plain Dolev only guarantees that
  *relayed* lies don't win, so the equivocation attack legitimately
  diverges deliveries and the log-prefix monitor must flag it.  (Bracha
  is the baseline that closes that hole.)

Total order rides the source's slot numbers, as in
:mod:`repro.protocols.bracha`; delivery emits no ``commit`` events —
direct receipt needs no quorum certificate, so there is no
commit-implies-quorum obligation to check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.base import BroadcastSystem, CommitCallback, Replica
from repro.substrate import TcpParams, build_substrate
from repro.sim.engine import Engine
from repro.sim.process import ProcessConfig


@dataclass
class DolevConfig:
    """Deployment cost knobs."""

    request_cpu_ns: int = 6_000
    relay_cpu_ns: int = 1_500
    max_requests_per_poll: int = 8
    msg_overhead_bytes: int = 40
    path_entry_bytes: int = 4
    process: ProcessConfig = field(
        default_factory=lambda: ProcessConfig(poll_interval_ns=2_000,
                                              poll_jitter_ns=500))


class DolevNode(Replica):
    """One replica of the path-flooding broadcast."""

    def __init__(self, cluster: "DolevCluster", node_id: int,
                 cfg: DolevConfig):
        super().__init__(cluster, node_id, cfg, name=f"dolev{node_id}")
        self.ep = cluster.net.attach(self)
        #: (slot, value) -> effective paths observed so far
        self._paths: dict[tuple, list[frozenset]] = {}
        self._relayed: set[tuple] = set()
        self._delivered: set[int] = set()
        self._buffer: dict[int, Any] = {}
        self.next_deliver = 0
        self._max_slot = -1
        # source-only state
        self.next_slot = 0
        self._cbs: dict[int, CommitCallback] = {}

    # ------------------------------------------------------------------ util

    def _msg_bytes(self, size: int, path_len: int) -> int:
        return (size + self.cfg.msg_overhead_bytes
                + path_len * self.cfg.path_entry_bytes)

    def latest_slot(self) -> Optional[int]:
        """Highest slot this node has seen traffic for (adversarial
        pumps target it to collide with live consensus state)."""
        return self._max_slot if self._max_slot >= 0 else None

    # ------------------------------------------------------------------ poll

    def on_poll(self) -> None:
        if self.ep.inbox:
            for src, msg in self.ep.drain():
                self._dispatch(src, msg)
        if self.node_id == self.cluster.source:
            taken = 0
            while self.pending and taken < self.cfg.max_requests_per_poll:
                taken += 1
                payload, size, cb = self.pending.pop(0)
                s = self.next_slot
                self.next_slot += 1
                if cb is not None:
                    self._cbs[s] = cb
                self.cpu.charge(self.cfg.request_cpu_ns)
                msg = ("MSG", s, payload, size, ())
                probe = self.engine.probe
                if probe is not None:
                    probe.bind(msg, payload)
                    probe.mark(payload, "propose", self.engine.now)
                self._bcast(msg, self._msg_bytes(size, 0))
                self._accept(s, payload)       # source trusts itself
                self.engine.trace.count("dolev.send")

    def _bcast(self, msg: tuple, wire_bytes: int,
               skip: frozenset = frozenset()) -> None:
        nodes = self.cluster.nodes
        dsts = [p for p in self.cluster.node_ids
                if p != self.node_id and p not in skip
                and not nodes[p].crashed]
        self.cluster.net.broadcast(self.node_id, dsts, msg, wire_bytes)

    # -------------------------------------------------------------- messages

    def _dispatch(self, src: int, msg: tuple) -> None:
        if msg[0] != "MSG":
            return
        _, s, v, size, path = msg
        if s > self._max_slot:
            self._max_slot = s
        source = self.cluster.source
        direct = src == source and not path
        # The claimed path cannot omit the hop that actually happened:
        # fold the transport-level sender in (the source itself is never
        # path material — path entries are relayers only).
        eff = frozenset(path) | ({src} if src != source else frozenset())
        if s not in self._delivered:
            if direct:
                self._accept(s, v)
            else:
                paths = self._paths.setdefault((s, v), [])
                if eff not in paths:
                    paths.append(eff)
                if self._disjoint_count(paths) >= self.cluster.f + 1:
                    self._accept(s, v)
        # Relay the first receipt of each (slot, value), while the route
        # is still short enough for the disjointness budget to care.
        if (s, v) not in self._relayed and len(eff) <= self.cluster.f:
            self._relayed.add((s, v))
            self.cpu.charge(self.cfg.relay_cpu_ns)
            fwd_path = tuple(sorted(eff | {self.node_id}))
            self._bcast(("MSG", s, v, size, fwd_path),
                        self._msg_bytes(size, len(fwd_path)),
                        skip=eff | {source})
            self.engine.trace.count("dolev.relay")

    @staticmethod
    def _disjoint_count(paths: "list[frozenset]") -> int:
        """Greedy maximum pairwise-disjoint subset size (paths are tiny:
        at most f relayer ids each)."""
        count = 0
        used: set = set()
        for p in sorted(paths, key=len):
            if not (p & used):
                count += 1
                used |= p
        return count

    def _accept(self, s: int, v: Any) -> None:
        if s in self._delivered:
            return
        self._delivered.add(s)
        self._buffer[s] = v
        source = self.node_id == self.cluster.source
        while self.next_deliver in self._buffer:
            slot = self.next_deliver
            val = self._buffer.pop(slot)
            self.next_deliver += 1
            self.cluster.record_delivery(self.node_id, val)
            if source:
                cb = self._cbs.pop(slot, None)
                if cb is not None:
                    cb(slot)
            self.engine.trace.count("dolev.deliver")


class DolevCluster(BroadcastSystem):
    """A Dolev reliable-broadcast deployment with a fixed source."""

    name = "dolev"

    def __init__(self, engine: Engine, n: int,
                 config: Optional[DolevConfig] = None,
                 tcp_params: Optional[TcpParams] = None,
                 record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or DolevConfig()
        self.net = self.substrate = build_substrate("tcp", engine,
                                                    params=tcp_params)
        self.f = (n - 1) // 3
        self.source = 0
        self.nodes: dict[int, DolevNode] = {
            i: DolevNode(self, i, self.cfg) for i in self.node_ids}

    def leader_id(self) -> Optional[int]:
        """The fixed source plays the serving-node role (no election,
        no term: Dolev emits no ``leader`` events)."""
        nd = self.nodes[self.source]
        return None if nd.crashed else self.source
