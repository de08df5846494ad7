"""Classic multi-Paxos over TCP — the libpaxos baseline (§4).

libpaxos is an in-memory Paxos implementation: a distinguished proposer
runs phase 2 per instance (phase 1 is amortised over the proposer's
reign), acceptors broadcast ACCEPTED to all learners, and every node
learns/delivers an instance once a quorum of acceptors has accepted it.
No disk is involved, so libpaxos sits *below* ZooKeeper/etcd but an
order of magnitude above the RDMA systems: every instance costs
kernel-TCP messages quadratic in the learner fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.base import CommitCallback
from repro.protocols.tcpreplica import TcpCluster, TcpReplica
from repro.sim.engine import us
from repro.sim.process import ProcessConfig


@dataclass
class PaxosConfig:
    """libpaxos cost knobs."""

    window: int = 64                    # pipelined open instances
    propose_cpu_ns: int = 6_000         # per-instance proposer bookkeeping
    accept_cpu_ns: int = 3_000
    learn_cpu_ns: int = 1_500
    heartbeat_period_ns: int = us(150)
    leader_timeout_ns: int = us(800)
    prepare_cpu_ns: int = 8_000
    msg_overhead_bytes: int = 40
    process: ProcessConfig = field(
        default_factory=lambda: ProcessConfig(poll_interval_ns=2_000, poll_jitter_ns=500))


class PaxosNode(TcpReplica):
    """One libpaxos replica (proposer + acceptor + learner)."""

    # The takeover stagger reads peers' crashed flags.
    crash_wakes_survivors = True

    def __init__(self, cluster: "PaxosCluster", node_id: int, cfg: PaxosConfig):
        super().__init__(cluster, node_id, cfg, name=f"paxos{node_id}")
        # Acceptor state, per instance id.
        self.promised: dict[int, int] = {}
        self.accepted: dict[int, tuple[int, Any, int]] = {}   # iid -> (ballot, value, size)
        self.min_promised = 0            # ballot floor from PREPAREs
        # Learner state: undelivered instances only, every iid below
        # next_deliver is learnt.
        self.learn_votes: dict[int, dict[int, int]] = {}      # iid -> {acceptor: ballot}
        self.chosen: dict[int, tuple[Any, int]] = {}
        self.next_deliver = 0
        # Proposer state.
        self.is_proposer = node_id == 0
        self.ballot = node_id + 1        # disjoint ballot spaces per node
        self.next_iid = 0
        self._cbs: dict[int, CommitCallback] = {}
        self.open_instances: set[int] = set()
        self._prepare_promises: dict[int, dict] = {}
        self.preparing = False
        self._last_hb_seen = 0
        self._last_hb_sent = 0

    # ------------------------------------------------------------------ util

    def _bcast_include_self(self, msg: tuple, size: int) -> None:
        """Send to every node id, crashed peers included, then handle
        this node's own copy in place (its acceptor and learner)."""
        self._bcast(self.cluster.node_ids, msg, size)
        self._dispatch(self.node_id, msg)

    # ------------------------------------------------------------------ poll

    def _step(self) -> None:
        if self.is_proposer and not self.preparing:
            self._propose_step()
        elif not self.is_proposer:
            if self.engine.now - self._last_hb_seen > self.cfg.leader_timeout_ns:
                self._maybe_take_over()

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        if self.ep.inbox:
            return False
        if self.is_proposer and not self.preparing and self.pending:
            return False
        return True

    def park_deadline(self) -> Optional[int]:
        if self.is_proposer:
            if self.preparing:
                # Phase 1 outstanding: progress arrives only as PROMISE
                # messages (doorbell).
                return None
            return self._last_hb_sent + self.cfg.heartbeat_period_ns
        # Takeover: needs now - seen > timeout AND, when a lower-ranked
        # live node exists, now - seen >= timeout * (1 + rank).  Crashes
        # re-wake everyone (crash_wakes_survivors), so the stagger term can
        # be trusted between wakes.
        seen = self._last_hb_seen
        live_lower = any(p < self.node_id and not self.cluster.nodes[p].crashed
                         for p in self.cluster.node_ids)
        if live_lower:
            return seen + self.cfg.leader_timeout_ns * (1 + self.node_id)
        return seen + self.cfg.leader_timeout_ns + 1

    # -------------------------------------------------------------- proposer

    def _propose_step(self) -> None:
        while self.pending and len(self.open_instances) < self.cfg.window:
            payload, size, cb = self.pending.pop(0)
            iid = self.next_iid
            self.next_iid += 1
            if cb is not None:
                self._cbs[iid] = cb
            self.open_instances.add(iid)
            self.cpu.charge(self.cfg.propose_cpu_ns)
            accept_msg = ("ACCEPT", self.ballot, iid, payload, size)
            probe = self.engine.probe
            if probe is not None:
                # The ACCEPT tuple is the wire carrier for this payload.
                probe.bind(accept_msg, payload)
                probe.mark(payload, "propose", self.engine.now)
            self._bcast_include_self(accept_msg, size)
            self.engine.trace.count("paxos.propose")
        now = self.engine.now
        if now - self._last_hb_sent >= self.cfg.heartbeat_period_ns:
            self._last_hb_sent = now
            self._bcast(self.cluster.node_ids, ("HB", self.ballot), 8)

    def _maybe_take_over(self) -> None:
        """Proposer timeout: run phase 1 with a higher ballot."""
        live_lower = [p for p in self.cluster.node_ids
                      if p < self.node_id and not self.cluster.nodes[p].crashed]
        if live_lower:
            # A lower-ranked live node should take over first; our
            # timeout is staggered by rank to avoid duels.
            if self.engine.now - self._last_hb_seen < \
                    self.cfg.leader_timeout_ns * (1 + self.node_id):
                return
        self.is_proposer = True
        self.preparing = True
        self.ballot += len(self.cluster.node_ids)
        probe = self.engine.probe
        if probe is not None:
            # Ballot spaces are disjoint per node by construction; the
            # claim event still feeds the single-leader monitor.
            probe.note(self.cluster, "leader", self.node_id,
                       term=self.ballot)
        self.next_iid = self.next_deliver
        self._prepare_promises = {}
        self.cpu.charge(self.cfg.prepare_cpu_ns)
        self._bcast_include_self(("PREPARE", self.ballot, self.next_deliver), 16)
        self.engine.trace.count("paxos.prepare")

    # -------------------------------------------------------------- messages

    def _dispatch(self, src: int, msg: tuple) -> None:
        kind = msg[0]
        if kind == "ACCEPT":
            _, ballot, iid, payload, size = msg
            if ballot >= self.min_promised and ballot >= self.promised.get(iid, 0):
                self.promised[iid] = ballot
                self.accepted[iid] = (ballot, payload, size)
                self.cpu.charge(self.cfg.accept_cpu_ns)
                probe = self.engine.probe
                if probe is not None:
                    # Per-instance accept with value identity: only
                    # same-value accepts may justify the commit.
                    probe.note(self.cluster, "accept_one", self.node_id,
                               slot=iid, key=payload)
                    probe.mark(msg, "accept", self.engine.now)
                # Acceptors broadcast ACCEPTED to every learner.
                self._bcast_include_self(("ACCEPTED", ballot, iid, payload, size), 24)
        elif kind == "ACCEPTED":
            _, ballot, iid, payload, size = msg
            if iid < self.next_deliver:
                return   # already delivered: its tally went at delivery
            votes = self.learn_votes.setdefault(iid, {})
            votes[src] = ballot
            same = sum(1 for b in votes.values() if b == ballot)
            if same >= self.cluster.quorum and iid not in self.chosen:
                self.chosen[iid] = (payload, size)
                self.cpu.charge(self.cfg.learn_cpu_ns)
                self._deliver_ready()
        elif kind == "HB":
            self._last_hb_seen = self.engine.now
        elif kind == "PREPARE":
            _, ballot, from_iid = msg
            if ballot > self.min_promised:
                self.min_promised = ballot
                if self.is_proposer and ballot > self.ballot:
                    self.is_proposer = False  # yield to the new proposer
                acc = {i: v for i, v in self.accepted.items() if i >= from_iid}
                self._send(src, ("PROMISE", ballot, acc), 24 + 16 * len(acc))
        elif kind == "PROMISE":
            _, ballot, acc = msg
            if not self.preparing or ballot != self.ballot:
                return
            self._prepare_promises[src] = acc
            if len(self._prepare_promises) + 1 >= self.cluster.quorum:
                self._finish_prepare()

    def _finish_prepare(self) -> None:
        """Phase 1 done: re-propose the highest-ballot accepted value per
        instance, then open for new values."""
        self.preparing = False
        merged: dict[int, tuple[int, Any, int]] = {
            i: v for i, v in self.accepted.items() if i >= self.next_deliver}
        for acc in self._prepare_promises.values():
            for iid, (b, payload, size) in acc.items():
                if iid not in merged or b > merged[iid][0]:
                    merged[iid] = (b, payload, size)
        for iid in sorted(merged):
            _b, payload, size = merged[iid]
            self.open_instances.add(iid)
            self.next_iid = max(self.next_iid, iid + 1)
            self._bcast_include_self(("ACCEPT", self.ballot, iid, payload, size), size)
        self.engine.trace.count("paxos.takeover_done")

    # ---------------------------------------------------------------- learner

    def _deliver_ready(self) -> None:
        probe = self.engine.probe
        while self.next_deliver in self.chosen:
            payload, _size = self.chosen.pop(self.next_deliver)
            self.learn_votes.pop(self.next_deliver, None)
            if probe is not None:
                probe.note(self.cluster, "commit", self.node_id,
                           slot=self.next_deliver, key=payload)
                probe.mark(payload, "commit", self.engine.now)
            self.cluster.record_delivery(self.node_id, payload)
            if self.is_proposer:
                cb = self._cbs.pop(self.next_deliver, None)
                if cb is not None:
                    cb(self.next_deliver)
                self.open_instances.discard(self.next_deliver)
            self.next_deliver += 1
            self.engine.trace.count("paxos.deliver")


class PaxosCluster(TcpCluster):
    """A libpaxos deployment (all nodes are acceptor+learner, node 0 the
    initial distinguished proposer)."""

    name = "libpaxos"
    node_class = PaxosNode
    config_class = PaxosConfig

    def start(self) -> None:
        probe = self.engine.probe
        if probe is not None:
            # Node 0 is the initial distinguished proposer at ballot 1.
            probe.note(self, "leader", 0, term=self.nodes[0].ballot)
        super().start()

    def leader_id(self) -> Optional[int]:
        best = None
        for nd in self.nodes.values():
            if not nd.crashed and nd.is_proposer and not nd.preparing:
                if best is None or nd.ballot > best.ballot:
                    best = nd
        return best.node_id if best is not None else None
