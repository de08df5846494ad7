"""Zab over TCP — the ZooKeeper baseline (§4, §5).

Zab is the protocol Acuerdo's broadcast mode is modelled on, so the
contrasts are precise:

- Zab followers ACK **every proposal** over TCP (kernel CPU both ends);
  Acuerdo followers overwrite one SST row with the newest header only;
- Zab's leader sends an explicit COMMIT message per proposal; Acuerdo
  piggybacks commit state on an overwriting SST row off the critical
  path;
- ZooKeeper's election (Fast Leader Election) must *verify* the elected
  leader is up to date with an extra round after voting — and restart if
  the check fails — because the optimized up-to-date election was shown
  incorrect (§5).  Acuerdo's election provides the guarantee by
  construction.

The deployment model matches the paper's: ZooKeeper 3.4 with its
transaction log on disk (group-committed fsyncs) and the request
pipeline's per-op CPU cost.  A zxid is ZooKeeper's 64-bit integer: the
epoch in the high 32 bits, the counter in the low 32, so integer order
is (epoch, counter) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.protocols.base import BroadcastSystem, CommitCallback
from repro.protocols.entrylog import EntryLog
from repro.protocols.tcpreplica import TcpCluster, TcpReplica
from repro.sim.disk import Disk
from repro.sim.engine import us
from repro.sim.process import ProcessConfig


EPOCH_SHIFT = 32


def pack_zxid(epoch: int, counter: int) -> int:
    return epoch << EPOCH_SHIFT | counter


def zxid_epoch(zxid: int) -> int:
    return zxid >> EPOCH_SHIFT


@dataclass
class ZabConfig:
    """ZooKeeper-deployment cost knobs.

    ``request_cpu_ns`` models the ZK request-processor pipeline
    (serialisation, session checks, queueing between pipeline stages) —
    tens of microseconds per op in a JVM service."""

    request_cpu_ns: int = 25_000
    ack_cpu_ns: int = 3_000
    fsync_ns: int = 120_000
    max_requests_per_poll: int = 8      # pipeline stage width: keeps the
                                        # leader responsive under bursts
    election_timeout_ns: int = us(6_000)  # large vs loaded poll turns, so
                                          # ACK floods don't look like death
    fle_round_ns: int = us(50)          # notification exchange cadence
    heartbeat_period_ns: int = us(100)
    msg_overhead_bytes: int = 48        # jute serialization overhead
    process: ProcessConfig = field(
        default_factory=lambda: ProcessConfig(poll_interval_ns=2_000, poll_jitter_ns=500))


class ZabNode(TcpReplica):
    """One ZooKeeper server."""

    LOOKING, FOLLOWING, LEADING = "looking", "following", "leading"

    # The leader's quorum-contact step-down reads peers' crashed flags.
    crash_wakes_survivors = True

    def __init__(self, cluster: "ZabCluster", node_id: int, cfg: ZabConfig):
        super().__init__(cluster, node_id, cfg, name=f"zk{node_id}")
        self.disk = Disk(cluster.engine, cfg.fsync_ns, name=f"zk{node_id}.disk",
                         owner=self)
        self.state = self.LOOKING
        self.epoch = 0
        self.leader: Optional[int] = None
        self.log = EntryLog()                            # keyed by zxid
        self.counter = 0
        self.delivered_upto = 0                          # index into log
        self._cbs: dict[int, CommitCallback] = {}
        self.acks: dict[int, set[int]] = {}             # uncommitted zxid -> ackers
        self.committed_zxid = 0
        self._durable_upto = 0
        self._last_hb_seen = 0
        self._last_hb_sent = 0
        # Fast Leader Election state
        self._fle_vote: Optional[tuple] = None           # (zxid, id)
        self._fle_received: dict[int, tuple] = {}
        self._fle_round_started = 0
        self._sync_acks: set[int] = set()
        self._verify_replies: dict[int, int] = {}
        self._phase = None                               # None|verify|sync
        self._follower_seen: dict[int, int] = {}
        self._became_leader_at = 0

    # ------------------------------------------------------------------ util

    def last_zxid(self) -> int:
        return self.log.key(-1) if self.log else 0

    # ------------------------------------------------------------------ poll

    def _step(self) -> None:
        if self.state == self.LEADING:
            self._leader_step()
        elif self.state == self.FOLLOWING:
            self._follower_step()
        else:
            self._election_step()

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        if self.ep.inbox or self.pending:
            return False
        if self.state == self.LOOKING:
            if self._fle_vote is None:
                return False
            agree = sum(1 for v in self._fle_received.values() if v == self._fle_vote)
            if agree >= self.cluster.quorum and self._fle_vote[1] == self.node_id:
                return False  # _start_leading due on the next tick
        return True

    def park_deadline(self) -> Optional[int]:
        cfg = self.cfg
        if self.state == self.LEADING:
            # Heartbeat cadence (>=) dominates; the quorum-contact
            # step-down can only flip when a follower's last-contact
            # expires (strict >) or at the leader-grace expiry — waking
            # early on any of these is a harmless no-op.  An expiry at
            # or behind ``now`` has had its effect on the poll that just
            # ran; returning it would keep the loop from ever parking.
            now = self.engine.now
            d = self._last_hb_sent + cfg.heartbeat_period_ns
            t = self._became_leader_at + cfg.election_timeout_ns + 1
            if now < t < d:
                d = t
            for p, seen in self._follower_seen.items():
                if self.cluster.nodes[p].crashed:
                    continue
                t = seen + cfg.election_timeout_ns + 1
                if now < t < d:
                    d = t
            return d
        if self.state == self.FOLLOWING:
            return self._last_hb_seen + cfg.election_timeout_ns + 1
        # LOOKING: re-broadcast a stalled round (strict >), or re-elect
        # while waiting for the winner's SYNC (strict >, doubled).
        agree = sum(1 for v in self._fle_received.values() if v == self._fle_vote)
        if agree >= self.cluster.quorum:
            return self._fle_round_started + cfg.election_timeout_ns * 2 + 1
        return self._fle_round_started + cfg.election_timeout_ns + 1

    # ------------------------------------------------------------- broadcast

    def _leader_step(self) -> None:
        now = self.engine.now
        if now - self._last_hb_sent >= self.cfg.heartbeat_period_ns:
            self._last_hb_sent = now
            self._bcast(self._live_peers(), ("PING", self.committed_zxid), 8)
        # Step down if a quorum of the ensemble is out of contact — a
        # minority leader must not keep reporting itself as serving.
        recent = sum(1 for p, t in self._follower_seen.items()
                     if now - t <= self.cfg.election_timeout_ns
                     and not self.cluster.nodes[p].crashed)
        if recent + 1 < self.cluster.quorum and \
                now - self._became_leader_at > self.cfg.election_timeout_ns:
            self._enter_election()
            return
        taken = 0
        while self.pending and self._phase is None and \
                taken < self.cfg.max_requests_per_poll:
            taken += 1
            payload, size, cb = self.pending.pop(0)
            self.counter += 1
            zxid = pack_zxid(self.epoch, self.counter)
            self.cpu.charge(self.cfg.request_cpu_ns)
            self.log.append(zxid, payload, size)
            if cb is not None:
                self._cbs[zxid] = cb
            self.acks[zxid] = set()
            prop = ("PROPOSE", zxid, payload, size)
            probe = self.engine.probe
            if probe is not None:
                # The PROPOSE tuple is the wire carrier for this payload:
                # bind it so tcp send/drain milestones attribute to the span.
                probe.bind(prop, payload)
                probe.mark(payload, "propose", self.engine.now)
            self._bcast(self._live_peers(), prop, size)
            self.disk.append(lambda zxid=zxid: self._on_self_durable(zxid))
            self.engine.trace.count("zab.propose")

    def _on_self_durable(self, zxid: int) -> None:
        probe = self.engine.probe
        if probe is not None:
            # Durable zxid frontier = cumulative accept (FIFO disk, so
            # these arrive in zxid order).
            probe.note(self.cluster, "accept", self.node_id, slot=zxid)
        self._note_ack(zxid, self.node_id)

    def _note_ack(self, zxid: int, voter: int) -> None:
        # An ACK at or below the commit frontier is late (its tally was
        # dropped at delivery): nothing reads it again.
        if self.state != self.LEADING or zxid_epoch(zxid) != self.epoch \
                or zxid <= self.committed_zxid:
            return
        s = self.acks.setdefault(zxid, set())
        s.add(voter)
        if len(s) >= self.cluster.quorum:
            # Commit everything up to zxid in order.  The log is
            # append-only in zxid order and every entry below
            # delivered_upto is already committed, so the quorum check
            # only needs the (committed_zxid, zxid] window — scanning
            # from the front again would be quadratic under load.
            keys, acks, quorum = self.log.keys, self.acks, self.cluster.quorum
            for i in range(self.delivered_upto, len(keys)):
                z = keys[i]
                if z > zxid:
                    break
                if self.committed_zxid < z:
                    if len(acks.get(z, ())) < quorum and z != zxid:
                        return  # earlier proposal not yet quorum-acked
            self.committed_zxid = zxid
            self._bcast(self._live_peers(), ("COMMIT", zxid), 16)
            self._deliver_upto(zxid)

    def _follower_durable(self, zxid: int, leader: int) -> None:
        probe = self.engine.probe
        if probe is not None:
            probe.note(self.cluster, "accept", self.node_id, slot=zxid)
        self._send(leader, ("ACK", zxid), 16)

    def _deliver_upto(self, zxid: int) -> None:
        probe = self.engine.probe
        keys, payloads = self.log.keys, self.log.payloads
        while self.delivered_upto < len(keys):
            z = keys[self.delivered_upto]
            if z > zxid:
                break
            payload = payloads[self.delivered_upto]
            self.delivered_upto += 1
            self.acks.pop(z, None)   # the leader's tally of a committed zxid
            if probe is not None:
                probe.note(self.cluster, "commit", self.node_id, slot=z)
                probe.mark(payload, "commit", self.engine.now)
            self.cluster.record_delivery(self.node_id, payload)
            cb = self._cbs.pop(z, None)
            if cb is not None:
                cb(z)
            self.engine.trace.count("zab.deliver")

    def _follower_step(self) -> None:
        # Forward client writes to the leader, as ZooKeeper followers do
        # (the harness always submits at the leader, so forwarded writes
        # carry no commit callback).
        while self.pending:
            payload, size, _cb = self.pending.pop(0)
            if self.leader is not None:
                self._send(self.leader, ("FORWARD", payload, size), size)
        if self.engine.now - self._last_hb_seen > self.cfg.election_timeout_ns:
            self._enter_election()

    # -------------------------------------------------------------- messages

    def _dispatch(self, src: int, msg: tuple) -> None:
        kind = msg[0]
        probe = self.engine.probe
        if self.state == self.LEADING:
            self._follower_seen[src] = self.engine.now
        if kind == "PROPOSE" and self.state == self.FOLLOWING:
            _, zxid, payload, size = msg
            if zxid_epoch(zxid) >= self.epoch:
                self.epoch = zxid_epoch(zxid)
                self.log.append(zxid, payload, size)
                self.cpu.charge(self.cfg.ack_cpu_ns)
                if probe is not None:
                    probe.mark(msg, "accept", self.engine.now)
                self.disk.append(lambda zxid=zxid, src=src:
                                 self._follower_durable(zxid, src))
        elif kind == "ACK":
            self._note_ack(msg[1], src)
        elif kind == "COMMIT" and self.state == self.FOLLOWING:
            zxid = msg[1]
            if zxid > self.committed_zxid:
                self.committed_zxid = zxid
            self._deliver_upto(self.committed_zxid)
        elif kind == "PING" and self.state == self.FOLLOWING:
            self._last_hb_seen = self.engine.now
            self._send(src, ("PONG",), 8)
            if msg[1] > self.committed_zxid:
                self.committed_zxid = msg[1]
                self._deliver_upto(self.committed_zxid)
        elif kind == "FORWARD" and self.state == self.LEADING:
            _, payload, size = msg
            self.pending.append((payload, size, None))
        elif kind == "FLE_VOTE":
            if self.state == self.LEADING and self._phase is None:
                # A peer fell back to LOOKING (timeout under load): bring
                # it back with a fresh SYNC instead of letting it float.
                self._sync_to(src)
            else:
                self._on_fle_vote(src, msg[1])
        elif kind == "VERIFY_REQ":
            self._send(src, ("VERIFY_REP", self.last_zxid()), 16)
        elif kind == "VERIFY_REP":
            self._verify_replies[src] = msg[1]
        elif kind == "SYNC" and self.state in (self.LOOKING, self.FOLLOWING):
            _, epoch, leader, log = msg
            if epoch >= self.epoch:
                self.epoch = epoch
                self.leader = leader
                prev_frontier = self.last_zxid()
                self.log = EntryLog(log)
                self.delivered_upto = min(self.delivered_upto, len(self.log))
                if probe is not None:
                    # State transfer installs the leader's whole log:
                    # the accepted frontier jumps to its last zxid (a
                    # truncation when the old suffix was longer).
                    frontier = self.last_zxid()
                    kind = ("accept" if frontier >= prev_frontier
                            else "accept_trunc")
                    probe.note(self.cluster, kind, self.node_id,
                               slot=frontier)
                self.state = self.FOLLOWING
                self._last_hb_seen = self.engine.now
                self._send(leader, ("SYNC_ACK", epoch), 8)
                self.engine.trace.count("zab.sync")
        elif kind == "SYNC_ACK" and self.state == self.LEADING:
            self._sync_acks.add(src)
            if len(self._sync_acks) + 1 >= self.cluster.quorum and self._phase == "sync":
                self._phase = None  # broadcast mode open for business
                # A quorum now stores exactly our log: commit the synced
                # prefix (Zab's NEWLEADER commit), or the uncommitted
                # old-epoch suffix would block every new-epoch commit.
                if self.log:
                    self.committed_zxid = self.last_zxid()
                    if probe is not None:
                        # The leader's own copy of the synced log counts
                        # toward the quorum that stores the prefix.
                        probe.note(self.cluster, "accept", self.node_id,
                                   slot=self.committed_zxid)
                    self._bcast(self._live_peers(),
                                ("COMMIT", self.committed_zxid), 16)
                    self._deliver_upto(self.committed_zxid)
                self.engine.trace.count("zab.broadcast_open")

    # -------------------------------------------------------------- election

    def _enter_election(self) -> None:
        if self.state != self.LOOKING:
            self.engine.trace.count("zab.elections_started")
        self.state = self.LOOKING
        self.leader = None
        self._phase = None
        self._fle_vote = (self.last_zxid(), self.node_id)
        self._fle_received = {self.node_id: self._fle_vote}
        self._fle_round_started = self.engine.now
        self._bcast(self._live_peers(), ("FLE_VOTE", self._fle_vote), 24)

    def _on_fle_vote(self, src: int, vote: tuple) -> None:
        if self.state != self.LOOKING:
            # Tell latecomers who the leader is by echoing our vote.
            if self.leader is not None:
                self._send(src, ("FLE_VOTE", (self.last_zxid(), self.leader)), 24)
            return
        self._fle_received[src] = vote
        if self._fle_vote is None or vote > self._fle_vote:
            self._fle_vote = vote
            self._bcast(self._live_peers(), ("FLE_VOTE", vote), 24)

    def _election_step(self) -> None:
        if self._fle_vote is None:
            self._enter_election()
            return
        agree = [s for s, v in self._fle_received.items() if v == self._fle_vote]
        if len(agree) >= self.cluster.quorum:
            winner = self._fle_vote[1]
            if winner == self.node_id:
                self._start_leading()
            # Followers wait for SYNC from the winner; re-elect on timeout.
            elif self.engine.now - self._fle_round_started > self.cfg.election_timeout_ns * 2:
                self._enter_election()
        elif self.engine.now - self._fle_round_started > self.cfg.election_timeout_ns:
            # Round stalled: rebroadcast our vote (notification loss model).
            self._fle_round_started = self.engine.now
            self._bcast(self._live_peers(), ("FLE_VOTE", self._fle_vote), 24)

    def _start_leading(self) -> None:
        """Won FLE — but unlike Acuerdo we must *verify* we are up to
        date with an extra round before serving (§5), restarting the
        election if the check fails."""
        self.state = self.LEADING
        self.leader = self.node_id
        self._became_leader_at = self.engine.now
        self._follower_seen = {}
        self._phase = "verify"
        self._verify_replies = {}
        self._bcast(self._live_peers(), ("VERIFY_REQ",), 8)
        self.engine.schedule(self.cfg.fle_round_ns * 4, self._finish_verify)
        self.engine.trace.count("zab.elected")

    def _finish_verify(self) -> None:
        if self.state != self.LEADING or self._phase != "verify":
            return
        mine = self.last_zxid()
        behind = [z for z in self._verify_replies.values() if z > mine]
        if behind:
            # Up-to-date check failed: back to election (the restart
            # Acuerdo's construction avoids).
            self.engine.trace.count("zab.verify_failed")
            self._enter_election()
            self.request_poll()
            return
        self.epoch = max(self.epoch, zxid_epoch(mine)) + 1
        self.counter = 0
        # Tallies of an earlier reign's uncommitted proposals: the
        # epoch check in _note_ack keeps them from being read again.
        self.acks = {}
        probe = self.engine.probe
        if probe is not None:
            # The verified winner exclusively owns the new epoch.
            probe.note(self.cluster, "leader", self.node_id,
                       term=self.epoch)
        self._phase = "sync"
        self._sync_acks = set()
        for p in self._live_peers():
            self._sync_to(p)
        self.engine.trace.count("zab.sync_sent")
        # This ran as a scheduled event, outside the poll loop; the sends
        # above advanced busy_until, so a parked loop must re-derive.
        self.request_poll()

    def _sync_to(self, p: int) -> None:
        """State transfer to ``p``: the message carries the whole log,
        the wire is charged for the uncommitted suffix from the last
        delivered entry on (a coarse DIFF)."""
        log_size = sum(self.log.sizes[max(0, self.delivered_upto - 1):])
        self._send(p, ("SYNC", self.epoch, self.node_id, tuple(self.log)),
                   max(64, log_size))


class ZabCluster(TcpCluster):
    """A ZooKeeper ensemble."""

    name = "zookeeper"
    node_class = ZabNode
    config_class = ZabConfig

    def start(self) -> None:
        for nd in self.nodes.values():
            nd.start()
            nd._enter_election()

    # The inherited submit, bound in this class's namespace because
    # bench/hosttrace.py wraps ``submit`` here by name.
    submit = BroadcastSystem.submit

    def leader_id(self) -> Optional[int]:
        for nd in self.nodes.values():
            if not nd.crashed and nd.state == ZabNode.LEADING and nd._phase is None:
                return nd.node_id
        return None
