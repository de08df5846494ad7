"""Raft over TCP — the etcd baseline (§4, §5).

Standard Raft: AppendEntries replication with consistency checks,
commit on majority match, randomized election timeouts with possible
split votes (the livelock-shaped behaviour Acuerdo's monotone election
avoids — §3.3), and etcd's durability discipline: every appended batch
is fsynced on leader and followers before it is acknowledged.

The deployment costs (kernel TCP + fsync + the etcd request path) put
this system at the top of the latency band in Fig. 8 and the bottom of
the throughput ranking in Fig. 9, as measured in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.protocols.base import CommitCallback
from repro.protocols.entrylog import EntryLog
from repro.protocols.tcpreplica import TcpCluster, TcpReplica
from repro.sim.disk import Disk
from repro.sim.engine import us
from repro.sim.process import ProcessConfig


@dataclass
class RaftConfig:
    """etcd-deployment cost knobs.

    ``fsync_ns`` is deliberately larger than the ZooKeeper model's: etcd
    syncs its WAL with stricter defaults, which is where the paper's
    ~5× gap between ZooKeeper and etcd comes from (Fig. 9)."""

    request_cpu_ns: int = 150_000       # grpc + boltdb + raft pipeline per op
    append_cpu_ns: int = 4_000
    fsync_ns: int = 600_000
    heartbeat_period_ns: int = us(150)
    election_timeout_min_ns: int = us(500)
    election_timeout_max_ns: int = us(1000)
    msg_overhead_bytes: int = 64        # grpc/protobuf framing
    max_batch: int = 128
    process: ProcessConfig = field(
        default_factory=lambda: ProcessConfig(poll_interval_ns=2_000, poll_jitter_ns=500))


class RaftNode(TcpReplica):
    """One etcd/Raft server."""

    FOLLOWER, CANDIDATE, LEADER = "follower", "candidate", "leader"

    def __init__(self, cluster: "RaftCluster", node_id: int, cfg: RaftConfig):
        super().__init__(cluster, node_id, cfg, name=f"etcd{node_id}")
        self.disk = Disk(cluster.engine, cfg.fsync_ns, name=f"etcd{node_id}.wal",
                         owner=self)
        self.state = self.FOLLOWER
        self.term = 0
        self.voted_for: Optional[int] = None
        self.log = EntryLog()                      # keyed by term
        self.durable_len = 0
        self.commit_index = 0
        self.applied = 0
        self._cbs: dict[int, CommitCallback] = {}
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}
        self._votes: set[int] = set()
        self._election_deadline = 0
        self._last_hb_sent = 0
        self._rng = cluster.engine.rng(f"raft.{node_id}")
        self._reset_election_timer()

    # ------------------------------------------------------------------ util

    def _reset_election_timer(self) -> None:
        span = self.cfg.election_timeout_max_ns - self.cfg.election_timeout_min_ns
        self._election_deadline = (self.engine.now + self.cfg.election_timeout_min_ns
                                   + self._rng.randrange(max(1, span)))

    def last_log(self) -> tuple[int, int]:
        """(last log term, last log index) for vote comparisons."""
        return (self.log.key(-1) if self.log else 0, len(self.log))

    # ------------------------------------------------------------------ poll

    def _step(self) -> None:
        if self.state == self.LEADER:
            self._leader_step()
        elif self.engine.now >= self._election_deadline:
            self._start_election()

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        if self.ep.inbox:
            return False
        if self.state == self.LEADER and self.pending:
            return False
        return True

    def park_deadline(self) -> Optional[int]:
        if self.state == self.LEADER:
            return self._last_hb_sent + self.cfg.heartbeat_period_ns
        return self._election_deadline

    # -------------------------------------------------------------- election

    def _start_election(self) -> None:
        self.state = self.CANDIDATE
        self.term += 1
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._reset_election_timer()
        lt, li = self.last_log()
        # Raft sends to every node id, crashed peers included.
        self._bcast(self.cluster.node_ids, ("VOTE_REQ", self.term, lt, li), 24)
        self.engine.trace.count("raft.elections_started")

    def _become_leader(self) -> None:
        self.state = self.LEADER
        probe = self.engine.probe
        if probe is not None:
            probe.note(self.cluster, "leader", self.node_id, term=self.term)
        n = len(self.log)
        self.next_index = {p: n for p in self.cluster.node_ids if p != self.node_id}
        self.match_index = {p: 0 for p in self.cluster.node_ids if p != self.node_id}
        # Raft commits a no-op at term start to learn the commit frontier.
        self.log.append(self.term, None, 1)
        n = len(self.log)
        self.disk.append(lambda n=n: self._on_durable(n))
        self._replicate(force=True)
        self.engine.trace.count("raft.elected")

    # ---------------------------------------------------------------- leader

    def _leader_step(self) -> None:
        appended = False
        probe = self.engine.probe
        while self.pending:
            payload, size, cb = self.pending.pop(0)
            self.cpu.charge(self.cfg.request_cpu_ns)
            if probe is not None:
                probe.mark(payload, "propose", self.engine.now)
            self.log.append(self.term, payload, size)
            if cb is not None:
                self._cbs[len(self.log) - 1] = cb
            appended = True
        if appended:
            n = len(self.log)
            self.disk.append(lambda n=n: self._on_durable(n))
        now = self.engine.now
        if appended or now - self._last_hb_sent >= self.cfg.heartbeat_period_ns:
            self._last_hb_sent = now
            self._replicate(force=not appended)

    def _on_durable(self, upto: int) -> None:
        # Only what was in the log when the sync started is durable; a
        # sync must not vouch for entries appended while it ran.
        prev = self.durable_len
        self.durable_len = max(prev, min(upto, len(self.log)))
        if self.durable_len > prev:
            probe = self.engine.probe
            if probe is not None:
                # Durable frontier = cumulative accept (1-based count).
                probe.note(self.cluster, "accept", self.node_id,
                           slot=self.durable_len)
        self._advance_commit()

    def _replicate(self, force: bool) -> None:
        for p in list(self.next_index):
            if self.cluster.nodes[p].crashed:
                continue
            ni = self.next_index[p]
            entries = self.log[ni:ni + self.cfg.max_batch]
            if not entries and not force:
                continue
            prev_term = self.log.key(ni - 1) if ni > 0 else 0
            size = sum(entries.sizes)
            self._send(p, ("APPEND", self.term, ni, prev_term,
                           tuple(entries), self.commit_index), max(16, size))
            if entries:
                self.next_index[p] = ni + len(entries)

    def _advance_commit(self) -> None:
        if self.state != self.LEADER:
            return
        matches = sorted([self.durable_len] + list(self.match_index.values()), reverse=True)
        n = matches[self.cluster.quorum - 1]
        # Only entries of the current term commit by counting replicas
        # (Raft §5.4.2); earlier-term entries commit transitively.
        while n > self.commit_index and self.log.key(n - 1) != self.term:
            n -= 1
        if n > self.commit_index:
            self.commit_index = n
            self._apply()

    def _apply(self) -> None:
        probe = self.engine.probe
        while self.applied < self.commit_index:
            payload = self.log.payload(self.applied)
            if probe is not None:
                # The term-start no-op (payload None) marks nothing.
                probe.note(self.cluster, "commit", self.node_id,
                           slot=self.applied + 1)
                probe.mark(payload, "commit", self.engine.now)
            if payload is not None:
                self.cluster.record_delivery(self.node_id, payload)
            cb = self._cbs.pop(self.applied, None)
            if cb is not None:
                cb(self.applied)
            self.applied += 1
            self.engine.trace.count("raft.apply")

    def _follower_durable(self, upto: int, leader: int) -> None:
        prev = self.durable_len
        self.durable_len = max(prev, min(upto, len(self.log)))
        if self.durable_len > prev:
            probe = self.engine.probe
            if probe is not None:
                probe.note(self.cluster, "accept", self.node_id,
                           slot=self.durable_len)
        self._send(leader, ("APPEND_REP", self.term, True, self.durable_len), 16)

    # -------------------------------------------------------------- messages

    def _dispatch(self, src: int, msg: tuple) -> None:
        kind = msg[0]
        term = msg[1]
        if term > self.term:
            self.term = term
            self.voted_for = None
            self.state = self.FOLLOWER
        if kind == "VOTE_REQ":
            _, cterm, clt, cli = msg
            grant = False
            if cterm >= self.term and self.voted_for in (None, src):
                mlt, mli = self.last_log()
                if (clt, cli) >= (mlt, mli):
                    grant = True
                    self.voted_for = src
                    self._reset_election_timer()
            self._send(src, ("VOTE_REP", self.term, grant), 16)
        elif kind == "VOTE_REP":
            _, vterm, grant = msg
            if self.state == self.CANDIDATE and vterm == self.term and grant:
                self._votes.add(src)
                if len(self._votes) >= self.cluster.quorum:
                    self._become_leader()
        elif kind == "APPEND":
            _, lterm, ni, prev_term, entries, leader_commit = msg
            if lterm < self.term:
                self._send(src, ("APPEND_REP", self.term, False, 0), 16)
                return
            self.state = self.FOLLOWER
            self._reset_election_timer()
            ok = ni == 0 or (len(self.log) >= ni and self.log.key(ni - 1) == prev_term)
            if not ok:
                self._send(src, ("APPEND_REP", self.term, False, min(len(self.log), ni)), 16)
                return
            if entries:
                self.log.truncate(ni)
                self.log.extend(entries)
                probe = self.engine.probe
                if self.durable_len > ni:
                    # Conflicting suffix replaced: the durable frontier
                    # falls back to the append point.
                    self.durable_len = ni
                    if probe is not None:
                        probe.note(self.cluster, "accept_trunc",
                                   self.node_id, slot=ni)
                self.cpu.charge(self.cfg.append_cpu_ns * len(entries))
                if probe is not None:
                    now = self.engine.now
                    for _t, payload, _sz in entries:
                        probe.mark(payload, "accept", now)
                # etcd followers fsync before acknowledging.
                end = len(self.log)
                self.disk.append(lambda end=end, src=src:
                                 self._follower_durable(end, src))
            else:
                # Heartbeats may only acknowledge what is already durable.
                self._send(src, ("APPEND_REP", self.term, True, self.durable_len), 16)
            if leader_commit > self.commit_index:
                self.commit_index = min(leader_commit, len(self.log))
                self._apply()
        elif kind == "APPEND_REP":
            _, rterm, ok, match = msg
            if self.state != self.LEADER or rterm != self.term:
                return
            if ok:
                self.match_index[src] = max(self.match_index.get(src, 0), match)
                self._advance_commit()
            else:
                self.next_index[src] = max(0, min(match, self.next_index.get(src, 1) - 1))


class RaftCluster(TcpCluster):
    """An etcd cluster."""

    name = "etcd"
    node_class = RaftNode
    config_class = RaftConfig

    def leader_id(self) -> Optional[int]:
        best = None
        for nd in self.nodes.values():
            if not nd.crashed and nd.state == RaftNode.LEADER:
                if best is None or nd.term > best.term:
                    best = nd
        return best.node_id if best is not None else None
