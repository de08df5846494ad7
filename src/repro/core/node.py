"""The Acuerdo node state machine.

One :class:`AcuerdoNode` implements all three modes of §3:

- **broadcast** (Fig. 4): the leader stamps client payloads with
  ``(E_new, ++Count)`` headers and pipelines them through its RDMA ring
  buffer to every node (including itself) without waiting for any
  acknowledgment;
- **accept / commit** (Figs. 5, 6): every node drains its incoming ring
  mirrors in receiver-side batches, logs messages, acknowledges only the
  *newest* accepted header through the Accept SST (FIFO delivery makes
  that acknowledgment cumulative), and commits in log order once a
  quorum has accepted (leader) or the leader's Commit-SST row says so
  (follower);
- **election / transition** (Fig. 7, §3.4): the fixed-point vote rules
  from :mod:`repro.core.election`, followed by per-node diff messages
  that carry exactly what each follower is missing.

Deviations from the paper's pseudocode, all noted inline and in
DESIGN.md:

1. the Commit-SST row carries a heartbeat counter next to the committed
   header, because with pure overwrite semantics an idle leader is
   indistinguishable from a dead one;
2. a freshly elected leader broadcasts one no-op message right after its
   diffs.  Fig. 6's follower commit rule only fires once the leader's
   Commit-SST row carries the *new* epoch, which first happens when
   message ``(E, 1)`` commits — without traffic, followers would never
   deliver the diff contents.  The no-op provides that first message
   (the same trick Raft uses at term start); it is never delivered to
   the application;
3. a leader evicts a receiver from its ring-slot accounting after a long
   heartbeat silence so a crashed follower cannot wedge the ring once it
   wraps; the evicted node rejoins through the next election's diff.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.core.config import AcuerdoConfig
from repro.core.election import decide_vote, max_vote, won_election, VoteDecision
from repro.core.types import (
    CNT_LIMIT,
    CommitRow,
    Epoch,
    HDR_ZERO,
    Message,
    MsgHdr,
    VOTE_ZERO,
    Vote,
    diff_payload_size,
    pack_hdr,
    unpack_hdr,
)
from repro.protocols.base import Replica
from repro.protocols.entrylog import EntryLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import AcuerdoCluster


class Role(enum.Enum):
    """A node's role within its current epoch (Fig. 1 line 17)."""

    ELECTING = "electing"
    LEADER = "leader"
    FOLLOWER = "follower"


class _Noop:
    """Sentinel payload for the epoch-opening no-op (never app-delivered)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<noop>"


NOOP = _Noop()


class AcuerdoNode(Replica):
    """One replica of an Acuerdo instance."""

    def __init__(self, cluster: "AcuerdoCluster", node_id: int, config: AcuerdoConfig):
        super().__init__(cluster, node_id, config, name=f"acuerdo{node_id}")
        self.peers = list(cluster.node_ids)
        self.quorum = config.quorum(len(self.peers))

        # --- Fig. 1 state ---
        self.E_cur: Epoch = Epoch(0, 0)
        self.E_new: Epoch = Epoch(0, 0)
        self.Accepted: MsgHdr = HDR_ZERO
        self.Committed: MsgHdr = HDR_ZERO
        self.Next: MsgHdr = HDR_ZERO
        self.Count: int = 0
        self.role: Role = Role.ELECTING
        # Fig. 1's ``map<msghdr, message*>``: payloads keyed by packed
        # header.  ``_ekey`` is ``pack_hdr((E_cur, 0))``, so a header of
        # the current epoch (Next's included) packs to ``_ekey + cnt``;
        # ``_next_at`` is the log index Next's entry is expected at (a
        # hint: commit checks it and bisects only when it misses).
        self.log = EntryLog()
        self._ekey = 0
        self._next_at = 0

        # --- broadcast plumbing ---
        self._epoch_msg_seq: dict[int, int] = {}   # cnt -> own-ring seq (current epoch)
        self._epoch_seq_floor = 0                  # cnts below it are dropped
        self._diff_seq: dict[int, int] = {}        # follower -> seq of its diff
        self._pending_diffs: list[tuple[int, Message]] = []
        self._on_commit_cb: dict[MsgHdr, Callable[[MsgHdr], None]] = {}

        # --- failure detection / election bookkeeping ---
        self._hb_seq = 0
        self._last_commit_push = 0
        self._peer_hb: dict[int, tuple[int, int]] = {p: (-1, 0) for p in self.peers}
        self._last_mx: Vote = VOTE_ZERO
        self._mx_changed_at = 0
        self._election_started_at: Optional[int] = None
        self._evicted: set[int] = set()
        self.deposed_epochs = 0
        self._last_gc = 0
        self._last_stranded_react = 0
        # Heartbeat trains (repro.core.trains): pure pushes left at the
        # last park, and whether this poll moved anything a peer's
        # train rules by (role, epoch, evictions).
        self._trains: Any = None      # bound by HeartbeatTrains
        self._train_pushes = 0
        self._verdicts_moved = False

        # --- hot-path shorthand ---
        # The cluster builds rings and SSTs before any node, and they
        # live for the whole run, so plain attributes replace property
        # indirection on every poll.  The mirror list is fixed too:
        # every node receives on every ring, and a ring's receivers are
        # fixed at construction (Acuerdo only excludes a receiver from
        # slot accounting).
        self._accept_sst = cluster.accept_sst
        self._vote_sst = cluster.vote_sst
        self._commit_sst = cluster.commit_sst
        self._ring = cluster.rings[node_id]
        self._ring_mirrors = [ring.receiver(node_id)
                              for ring in cluster.rings.values()]
        # Vote-SST max_vote cache: max_vote is a pure function of this
        # node's local copy, and the copy's version counter bumps on
        # every change — so re-scanning at an unchanged version must
        # return the identical Vote.  park_ready and the stranded-voter
        # check hit this on every leader poll.
        self._mx_cache_version = -1
        self._mx_cache: Vote = VOTE_ZERO
        # _commit_ready negative cache: while (role, Accept/Commit-SST
        # version, Next, E_cur) are unchanged, a re-evaluation reads the
        # same rows and must return the same False (True results advance
        # Next immediately, so only False is worth remembering).  Next
        # and E_cur are replaced-on-change immutable values, so identity
        # comparison is exact and costs no dataclass __eq__.
        self._cr_version = -1
        self._cr_next: Any = None
        self._cr_ecur: Any = None
        self._cr_role: Any = None
        # Highest ring-release floor reported to the monitors (the
        # slot_release event stream is monotonic per ring owner), plus
        # the ring release generation it was computed at.
        self._mon_floor = 0
        self._mon_release_gen = -1
        self._mon_admin_gen = 0

    def _mon_note_floor(self, probe: Any) -> None:
        """Report ring slot reuse to the monitors: one ``slot_release``
        event each time the effective release floor advances (eviction
        can move the floor outside ``_release_slots``, so bind sites
        sync it too).  Gated on the ring's release generation so the
        per-poll call is one int compare when nothing was released."""
        ring = self._ring
        if ring.release_gen == self._mon_release_gen:
            return
        self._mon_release_gen = ring.release_gen
        floor = ring.released_floor()
        if floor > self._mon_floor:
            self._mon_floor = floor
            # Two release paths carry no quorum-accept obligation and
            # are tagged ``admin`` for the slot-reuse monitor: a floor
            # advance coinciding with a membership change (eviction /
            # epoch re-baselining jumps past the evictee's unaccepted
            # tail), and any advance while fewer than a quorum of
            # receivers remain in accounting (the escape-hatch regime:
            # excluded laggards recover via the next epoch's diff, and
            # nothing released sub-quorum can have committed).
            admin = (ring.admin_gen != self._mon_admin_gen
                     or ring.accept_accounted < self.quorum)
            self._mon_admin_gen = ring.admin_gen
            probe.note(self.cluster, "slot_release", self.node_id, seq=floor,
                       extra="admin" if admin else None)
        else:
            self._mon_admin_gen = ring.admin_gen

    # ------------------------------------------------------------ event loop

    def on_poll(self) -> None:
        self._drain_rings()
        if self.role is Role.ELECTING:
            self._election_step(timeout_fired=False)
        else:
            self._commit_loop()
            if self.role is Role.LEADER:
                if self.pending or self._pending_diffs:
                    self._pump_client_queue()
                self._release_slots()
                self._evict_dead_receivers()
                self._check_stranded_voters()
            else:
                self._check_leader_alive()
        now = self.engine.now
        cfg = self.cfg
        if now - self._last_commit_push >= cfg.commit_push_period_ns:
            self._push_commit_row()
        if now - self._last_gc >= cfg.gc_period_ns:
            self._gc()
        if self._verdicts_moved:
            self._verdicts_moved = False
            self._trains.revalidate()

    def crash(self) -> None:
        super().crash()
        self._trains.revalidate()

    # --------------------------------------------------------- poll elision

    def heartbeat_is_quiet(self, row: int, old: CommitRow, new: CommitRow) -> bool:
        """Quiet verdict for a Commit-SST row landing in this node's
        copy (deviation 1's heartbeat traffic): True when the poll that
        observes it would only run ``_observe_peer_heartbeats``, i.e.
        stamp ``_peer_hb[row]``.  That excludes an evicted sender (the
        stamp re-admits it), a follower's leader row whose ``committed``
        moved (commits become ready), and a counter that did not advance
        (a replayed row: the scan compares against the last heartbeat it
        saw, not the last one written).  Heartbeat trains ask it before
        a push is posted, to decide whether the push needs an event."""
        return (new.heartbeat > old.heartbeat
                and row not in self._evicted
                and (self.role is Role.LEADER or row != self.E_cur.leader
                     or new.committed == old.committed))

    def on_park(self) -> None:
        self._trains.start(self, self._train_pushes)

    def on_quiet_deposit(self, row: int, value: CommitRow, tick: int) -> None:
        # What the elided poll at ``tick`` would have kept.  The waking
        # poll re-scans, finds these heartbeats already recorded, and
        # stamps only the rows that landed for its own tick.
        self._peer_hb[row] = (value.heartbeat, tick)

    def park_ready(self) -> bool:
        """on_poll is a no-op right now iff nothing is drainable and no
        commit is ready.  Every input that can change that rings the
        doorbell: ring deposits and SST writes both ride the QP delivery
        path (heartbeat-only Commit-SST rows are logged instead, see
        heartbeat_is_quiet), and client_broadcast calls request_poll."""
        if self.role is Role.ELECTING:
            return False
        for rr in self._ring_mirrors:
            if rr._ready:
                return False
        if self._commit_ready():
            return False
        if self.role is Role.LEADER:
            if self.pending or self._pending_diffs:
                return False
            # A persistent higher-epoch vote awaits the rate-limited
            # stranded-voter reaction: keep polling through it.
            if self._max_vote_cached().e_new > self.E_cur:
                return False
        return True

    def _max_vote_cached(self) -> Vote:
        """max_vote over this node's Vote-SST copy, re-scanned only when
        the copy's version moved (max_vote is pure, so this is exact)."""
        ver = self._vote_sst._versions[self.node_id]
        if ver != self._mx_cache_version:
            self._mx_cache_version = ver
            self._mx_cache = max_vote(self._vote_sst.copies[self.node_id])
        return self._mx_cache

    def park_deadline(self) -> Optional[int]:
        """Earliest instant a time-triggered branch of on_poll could act:
        the commit-row heartbeat push, log GC, and the failure-detector
        expiries (peer eviction for leaders, leader timeout for
        followers).  Early bounds are safe — an over-woken poll re-parks.
        Pure pushes (repro.core.trains) ride a heartbeat train instead:
        the push term is the one after them, or never more than that."""
        cfg = self.cfg
        self._train_pushes = k = self._trains.pure_pushes(self)
        d = self._last_commit_push + (k + 1) * cfg.commit_push_period_ns
        t = self._last_gc + cfg.gc_period_ns
        if t < d:
            d = t
        if self.role is Role.LEADER:
            horizon = 3 * cfg.leader_timeout_ns + 1
            for p in self.peers:
                if p == self.node_id or p in self._evicted:
                    continue
                t = self._peer_hb.get(p, (-1, 0))[1] + horizon
                if t < d:
                    d = t
        else:
            ldr = self.E_cur.leader
            if ldr != self.node_id:
                t = self._peer_hb.get(ldr, (-1, 0))[1] + cfg.leader_timeout_ns + 1
                if t < d:
                    d = t
        return d

    # ------------------------------------------------------ Fig. 4: broadcast

    def _pump_client_queue(self) -> None:
        # Runs from a leader's poll only: Fig. 4's precondition ``Role ==
        # LEADER`` (a deposed leader's queue is re-routed by the cluster).
        probe = self.engine.probe
        if probe is not None:
            self._mon_note_floor(probe)
        while self._pending_diffs:
            j, msg = self._pending_diffs[0]
            seq = self._ring.try_send(msg, msg.size, targets=[j])
            if seq is None:
                return
            self._diff_seq[j] = seq
            self._pending_diffs.pop(0)
            if probe is not None:
                # Diffs occupy ring slots but are released per receiver
                # by epoch bookkeeping, not quorum accept: bind with a
                # None slot (no reuse-safety obligation of their own).
                probe.note(self.cluster, "slot_bind", self.node_id,
                           seq=seq, extra=self._ring.capacity)
        budget = self.cfg.max_broadcasts_per_poll
        while self.pending and budget > 0:
            budget -= 1
            payload, size, on_commit = self.pending[0]
            if self.Count + 1 >= CNT_LIMIT:
                raise ValueError(f"epoch {self.E_new} ran out of message "
                                 f"counts (cnt < 2**32 in a packed header)")
            hdr = MsgHdr(self.E_new, self.Count + 1)
            msg = Message(hdr, payload, size)
            if self._ring.free_slots() <= 0:
                # Ring full under the release policy: retry next poll.
                self._ring.stalls += 1
                self.engine.trace.count("acuerdo.ring_full")
                return
            self.cpu.charge(self.cfg.broadcast_cpu_ns)
            if probe is not None:
                # The wire object for this payload is the Message; bind it
                # so the QP's nic_tx/wire/deposit milestones attribute.
                probe.bind(msg, payload)
                probe.mark(payload, "propose", self.engine.now)
            seq = self._ring.try_send(msg, size, earliest_ns=self.cpu.busy_until)
            self.pending.pop(0)
            self.Count += 1
            self._epoch_msg_seq[hdr.cnt] = seq
            if probe is not None:
                probe.note(self.cluster, "slot_bind", self.node_id,
                           slot=hdr, seq=seq, extra=self._ring.capacity)
            if on_commit is not None:
                self._on_commit_cb[hdr] = on_commit
            self.engine.trace.count("acuerdo.broadcast")

    # ------------------------------------------------------- Fig. 5: accept

    def _drain_rings(self) -> None:
        accepted_any = False
        mon_prev = self.Accepted
        for rr in self._ring_mirrors:
            if not rr._ready:
                continue
            for _seq, msg in rr.poll():
                accepted_any |= self._accept(msg)
        if accepted_any:
            # One acknowledgment per drained batch: the Accept-SST row is
            # overwriting, so pushing only the *newest* accepted header
            # implicitly acknowledges the whole batch (§3.2 — "accept the
            # later message, implicitly acknowledging the earlier one").
            ldr = self.E_cur.leader
            if ldr != self.node_id:
                self._accept_sst.push(self.node_id, targets=[ldr],
                                      earliest_ns=self.cpu.busy_until)
        if self.Accepted != mon_prev:
            probe = self.engine.probe
            if probe is not None:
                # Cumulative accept frontier, batched exactly like the
                # Accept-SST acknowledgment above: the newest header
                # implicitly covers the whole drained batch, and it is
                # the only frontier any quorum observer ever sees.
                probe.note(self.cluster, "accept", self.node_id,
                           slot=self.Accepted)

    def _accept(self, msg: Message) -> bool:
        """Handle one incoming message; returns True when a normal accept
        updated the Accept-SST row (push is batched by the caller)."""
        e = msg.hdr.e
        if e == self.E_new and e == self.E_cur:
            # Normal acceptance (Fig. 5 lines 47-53).  Thanks to FIFO
            # delivery, storing only the newest header in the Accept SST
            # implicitly acknowledges everything before it.
            self.cpu.charge(self.cfg.accept_cpu_ns)
            self.log.insert(self._ekey + msg.hdr.cnt, msg.payload, msg.size)
            self.Accepted = msg.hdr
            self._accept_sst.write_local(self.node_id, msg.hdr)
            self.engine.trace.count("acuerdo.accept")
            # Monitor accept events are emitted per drained batch by
            # _drain_rings (same batching as the Accept-SST push).
            if e.leader != self.node_id:
                probe = self.engine.probe
                if probe is not None:
                    probe.mark(msg, "accept", self.engine.now)
                return True
            return False
        elif self.E_new <= e:
            if msg.hdr.cnt != 0:
                # We never saw this epoch's opening diff (it was posted
                # into a partition and placed nowhere; the ring does not
                # replay it).  Without the diff the message cannot be
                # applied, so drop it and vote: the higher vote is what
                # the leader's stranded-voter recovery reacts to, and
                # the next epoch's diff re-admits us.
                self.engine.trace.count("acuerdo.missed_diff_drop")
                self._start_election()
            else:
                self._accept_diff(msg)
        else:
            # Stale epoch: a deposed leader's leftovers; drop silently.
            self.engine.trace.count("acuerdo.stale_drop")
        return False

    def _accept_diff(self, msg: Message) -> None:
        """Diff acceptance and transition into broadcast (Fig. 5, 54-66)."""
        assert msg.hdr.cnt == 0, "epoch-opening message must have count 0"
        e = msg.hdr.e
        if self.E_cur != e and self.role is Role.LEADER:
            self.deposed_epochs += 1
        self.E_new = e
        self.E_cur = e
        self._ekey = pack_hdr(MsgHdr(e, 0))
        if e.leader != self.node_id:
            self.role = Role.FOLLOWER
        self._verdicts_moved = True
        entries: EntryLog = msg.payload
        # Replace the uncommitted tail with the leader's view.  The diff
        # is a slice of the leader's keyed log from our committed header
        # (as the leader last read it) on, so whatever we hold above
        # Committed and below its first key is a deposed epoch's
        # leftover that the leader never had: drop it too.
        cut = pack_hdr(self.Committed) + 1
        if entries:
            cut = min(cut, entries.keys[0])
        self.log.truncate_from(cut)
        self.log.extend(entries)
        self.cpu.charge(self.cfg.accept_cpu_ns * (1 + len(entries)))
        self.Accepted = msg.hdr
        self._accept_sst.write_local(self.node_id, msg.hdr)
        probe = self.engine.probe
        if probe is not None:
            # Accepting the epoch-opening diff means adopting the new
            # leader's whole log prefix: the frontier jumps to (e, 0).
            probe.note(self.cluster, "accept", self.node_id, slot=msg.hdr)
        if e.leader != self.node_id:
            self._accept_sst.push(self.node_id, targets=[e.leader],
                                  earliest_ns=self.cpu.busy_until)
        self.Next = MsgHdr(e, 0)
        # Joining an epoch resets failure-detection state.
        self._peer_hb[e.leader] = (self._peer_hb.get(e.leader, (-1, 0))[0], self.engine.now)
        self._election_started_at = None
        self.engine.trace.count("acuerdo.diff_accept")

    # -------------------------------------------------------- Fig. 6: commit

    def _commit_ready(self) -> bool:
        role = self.role
        nxt = self.Next
        e_cur = self.E_cur
        if role is Role.LEADER:
            ver = self._accept_sst._versions[self.node_id]
            if (ver == self._cr_version and nxt is self._cr_next
                    and e_cur is self._cr_ecur and role is self._cr_role):
                return False
            # Direct read of this node's local SST copy (read() is two
            # dict hops + a call per peer; this loop runs per commit).
            accept_copy = self._accept_sst.copies[self.node_id]
            n_ok = 0
            for k in self.peers:
                h = accept_copy[k]
                if h is not None and h >= nxt and h.e == e_cur:
                    n_ok += 1
            if n_ok >= self.quorum:
                return True
        else:
            ver = self._commit_sst._versions[self.node_id]
            if (ver == self._cr_version and nxt is self._cr_next
                    and e_cur is self._cr_ecur and role is self._cr_role):
                return False
            row: CommitRow = self._commit_sst.read(self.node_id, e_cur.leader)
            if (row is not None and row.committed >= nxt
                    and row.committed.e == e_cur):
                return True
        self._cr_version = ver
        self._cr_next = nxt
        self._cr_ecur = e_cur
        self._cr_role = role
        return False

    def _commit_loop(self) -> None:
        # Drain as many commits as are ready this turn (receiver-side
        # batching: the batch size is whatever accumulated since the
        # last poll), bounded to keep single poll turns finite.
        for _ in range(self.cfg.max_commits_per_poll):
            if not self._commit_ready():
                return
            self.cpu.charge(self.cfg.commit_cpu_ns)
            nxt, log = self.Next, self.log
            key = self._ekey + nxt.cnt
            if nxt.cnt != 0:
                i = self._next_at
                keys = log.keys
                if i >= len(keys) or keys[i] != key:
                    i = log.find(key)
                    if i < 0:
                        # Cannot happen on a single FIFO channel per pair
                        # (the commit row was written after the message);
                        # trace defensively rather than skipping a message.
                        self.engine.trace.count("acuerdo.commit_gap_anomaly")
                        return
                self._next_at = i + 1
                self._deliver(nxt, log.payloads[i])
                self.Committed = nxt
            else:
                # Diff commit (Fig. 6 lines 83-89): deliver everything in
                # the diff that we have not delivered before.
                for k, payload, _size in log.span(pack_hdr(self.Committed) + 1, key):
                    hdr = unpack_hdr(k)
                    self._deliver(hdr, payload)
                    self.Committed = hdr
            self.Next = nxt.next()

    def _deliver(self, hdr: MsgHdr, payload: Any) -> None:
        self.engine.trace.count("acuerdo.commit")
        probe = self.engine.probe
        if probe is not None:
            if payload is not NOOP:
                # The payload's span is the one its wire Message was
                # bound to at propose, so marking either is the same.
                probe.mark(payload, "commit", self.engine.now)
            # Every commit (no-ops included) must be quorum-covered.
            # Headers are totally ordered and each node commits them in
            # order, so only the group-wide *first* commit of a slot
            # carries a new proof obligation — later replicas re-commit
            # slots already checked (the monitor would return early on
            # them anyway, below its proven watermark); suppressing them
            # at the source keeps the monitored hot path cheap.
            cluster = self.cluster
            hwm = cluster._mon_commit_hwm
            if hwm is None or hdr > hwm:
                cluster._mon_commit_hwm = hdr
                probe.note(cluster, "commit", self.node_id, slot=hdr)
        cb = self._on_commit_cb.pop(hdr, None)
        if cb is not None:
            # The client-visible acknowledgment leaves once the commit
            # handler's CPU work is done.
            self.engine.schedule_at(max(self.engine.now, self.cpu.busy_until),
                                    cb, hdr)
        if payload is NOOP:
            return
        self.cluster.record_delivery(self.node_id, payload)

    def _push_commit_row(self) -> None:
        self._last_commit_push = self.engine.now
        self._hb_seq += 1
        row = CommitRow(self.Committed, self._hb_seq)
        self._commit_sst.set_and_push(self.node_id, row)
        self._trains.note_push(self.node_id, row)

    def _gc(self) -> None:
        """Garbage-collect the log below the cluster-wide commit frontier.

        Entries are only needed for (a) local delivery — covered once
        committed here — and (b) diff construction if we win an election,
        which reaches back to the *receiver's* committed header (Fig. 7
        line 124).  Trimming below the minimum committed header across
        *all* peers' Commit-SST rows is therefore safe: no future diff
        can need a trimmed entry.  The cost of that safety is that a
        crashed peer's frozen row pins the log from its crash point on —
        a production deployment would add snapshot transfer (as
        ZooKeeper does) to reclaim it; see DESIGN.md."""
        self._last_gc = self.engine.now
        frontier = self.Committed
        for p in self.peers:
            if p == self.node_id:
                continue
            row: CommitRow = self._commit_sst.read(self.node_id, p)
            if row is None:
                return
            if row.committed < frontier:
                frontier = row.committed
        trimmed = self.log.drop_below(pack_hdr(frontier))
        if trimmed:
            self._next_at = max(0, self._next_at - trimmed)
            self.engine.trace.count("acuerdo.gc_trimmed", trimmed)

    # --------------------------------------------- slot release & liveness

    def _release_slots(self) -> None:
        """Accept-based slot reuse (§4.1): a slot is free once the
        receiver has accepted the message, long before commit."""
        ring = self._ring
        accept_copy = self._accept_sst.copies[self.node_id]
        e_cur = self.E_cur
        epoch_seq = self._epoch_msg_seq
        lowest = self.Count   # least cnt every accounted peer has accepted
        for k in self.peers:
            if k in self._evicted:
                continue
            h = accept_copy[k]
            if h is None or h.e != e_cur:
                lowest = 0
                continue
            cnt = h.cnt
            if cnt < lowest:
                lowest = cnt
            seq = self._diff_seq.get(k) if cnt == 0 else epoch_seq.get(cnt)
            if seq is not None:
                ring.mark_released(k, seq + 1)
        # A lookup below ``lowest`` could only repeat a release already
        # made (a re-admitted peer restarts above every dropped seq).
        floor = self._epoch_seq_floor
        if lowest > floor:
            for cnt in range(floor, lowest):
                epoch_seq.pop(cnt, None)
            self._epoch_seq_floor = lowest
        probe = self.engine.probe
        if probe is not None:
            self._mon_note_floor(probe)

    def _observe_peer_heartbeats(self) -> None:
        now = self.engine.now
        commit_copy = self._commit_sst.copies[self.node_id]
        peer_hb = self._peer_hb
        for p in self.peers:
            if p == self.node_id:
                continue
            row: CommitRow = commit_copy[p]
            hb = row.heartbeat if row is not None else 0
            last_hb, _ = peer_hb.get(p, (-1, 0))
            if hb != last_hb:
                peer_hb[p] = (hb, now)

    def _check_leader_alive(self) -> None:
        self._observe_peer_heartbeats()
        ldr = self.E_cur.leader
        if ldr == self.node_id:
            return
        _, seen_at = self._peer_hb.get(ldr, (-1, 0))
        if self.engine.now - seen_at > self.cfg.leader_timeout_ns:
            self._start_election()

    def _evict_dead_receivers(self) -> None:
        self._observe_peer_heartbeats()
        now = self.engine.now
        horizon = 3 * self.cfg.leader_timeout_ns
        for p in self.peers:
            if p == self.node_id:
                continue
            _, seen_at = self._peer_hb.get(p, (-1, 0))
            if now - seen_at > horizon:
                if p not in self._evicted:
                    # Keep mirroring (the node may be alive-but-slow and
                    # will catch up) but stop letting it wedge slot reuse.
                    self._evicted.add(p)
                    self._verdicts_moved = True
                    self._ring.exclude_from_accounting(p)
                    self.engine.trace.count("acuerdo.receiver_evicted")
            else:
                if p in self._evicted:
                    # Fresh heartbeat from an evicted peer: re-admit it;
                    # the release state resumes from its next acceptance.
                    self._evicted.discard(p)
                    self._verdicts_moved = True
                    self._ring.include_in_accounting(p, self._ring.next_seq)

    def _check_stranded_voters(self) -> None:
        """Recover peers stranded mid-election (partition healed, vote
        lost).  A node that raised ``E_new`` by voting can no longer
        accept messages of the current epoch, and its candidacy can
        never win against a healthy majority that is not electing — so
        it would starve forever.  The paper's machinery for bringing a
        node up to date is the epoch-opening diff, so the leader reacts
        to a persistent higher-epoch vote by running a fresh election
        itself: it wins (it dominates the quorum's accepted state, and
        its new epoch exceeds the stranded vote), and the new epoch's
        diffs re-admit everyone.  Rate-limited to avoid churn."""
        now = self.engine.now
        if now - self._last_stranded_react < 4 * self.cfg.leader_timeout_ns:
            return
        mx = self._max_vote_cached()
        if mx.e_new > self.E_cur:
            self._last_stranded_react = now
            self.engine.trace.count("acuerdo.stranded_voter_recovery")
            self._start_election()

    # --------------------------------------------------- Fig. 7: election

    def _start_election(self) -> None:
        if self.role is not Role.ELECTING:
            self.role = Role.ELECTING
            self._verdicts_moved = True
            self._election_started_at = self.engine.now
            self._mx_changed_at = self.engine.now
            self.engine.trace.count("acuerdo.elections_started")
            self._election_step(timeout_fired=True)

    def _election_step(self, timeout_fired: bool) -> None:
        now = self.engine.now
        votes = self._vote_sst.snapshot(self.node_id)
        mx = max_vote(votes)
        if mx != self._last_mx:
            self._last_mx = mx
            self._mx_changed_at = now
        own = votes.get(self.node_id) or VOTE_ZERO
        candidate_stalled = (
            mx.e_new.leader != self.node_id
            and now - self._mx_changed_at > self.cfg.candidate_timeout_ns)
        nobody_voted = mx == VOTE_ZERO
        action = decide_vote(self.node_id, own, self.E_new, self.Accepted, votes,
                             timed_out=timeout_fired or candidate_stalled or nobody_voted)
        if action.decision is not VoteDecision.HOLD:
            self.E_new = action.new_e_new
            self._vote_sst.set_and_push(self.node_id, action.new_vote)
            self.cpu.charge(self.cfg.election_cpu_ns)
            self.engine.trace.count(f"acuerdo.vote_{action.decision.value}")
            votes = self._vote_sst.snapshot(self.node_id)
        own = votes.get(self.node_id) or VOTE_ZERO
        if won_election(self.node_id, votes, own, self.quorum):
            self._become_leader()

    def _become_leader(self) -> None:
        """Fig. 7 lines 116-127: transition to leader and send diffs."""
        self.role = Role.LEADER
        self._verdicts_moved = True
        self.Count = 0
        self._epoch_msg_seq = {}
        self._epoch_seq_floor = 0
        self._diff_seq = {}
        # A new epoch starts with a clean slate: every peer gets a diff
        # (even previously evicted ones — the diff is their way back in)
        # and rejoins slot accounting from the diff onward.
        base = self._ring.next_seq
        for j in list(self._evicted):
            self._evicted.discard(j)
            self._ring.include_in_accounting(j, base)
        probe = self.engine.probe
        if probe is not None:
            # Exclusive leadership claim for this epoch (the term of the
            # single-leader invariant).  The full ``(round, leader)``
            # pair is the term: like Paxos ballots, distinct candidates
            # may race distinct epochs sharing a round number.
            probe.note(self.cluster, "leader", self.node_id,
                       term=self.E_new)
        comm_cpy = self._commit_sst.snapshot(self.node_id)
        hdr = MsgHdr(self.E_new, 0)
        hi = pack_hdr(self.Accepted) + 1
        for j in self.peers:
            row = comm_cpy.get(j)
            lo = row.committed if row is not None else HDR_ZERO
            # What j lacks: its committed entry through our accepted one.
            entries = self.log.span(pack_hdr(lo), hi)
            dmsg = Message(hdr, entries, diff_payload_size(entries))
            seq = self._ring.try_send(dmsg, dmsg.size, targets=[j])
            if seq is not None:
                self._diff_seq[j] = seq
                if probe is not None:
                    probe.note(self.cluster, "slot_bind", self.node_id,
                               seq=seq, extra=self._ring.capacity)
            else:
                self._pending_diffs.append((j, dmsg))
        self.cpu.charge(self.cfg.broadcast_cpu_ns * len(self.peers))
        if self._election_started_at is not None:
            self.engine.trace.sample(
                "acuerdo.election_duration_ns",
                self.engine.now - self._election_started_at)
            self._election_started_at = None
        self.engine.trace.count("acuerdo.elections_won")
        # Liveness no-op (deviation 2 in the module docstring): gives the
        # followers the first new-epoch commit that unlocks diff delivery.
        self.client_broadcast(NOOP, 1)
        self.cluster.note_new_leader(self.node_id)

    # --------------------------------------------------------------- helpers

    def preseed(self, epoch: Epoch, role: Role) -> None:
        """Install post-election state directly (benchmark fast-path so
        steady-state measurements skip the cold-start election)."""
        self.E_cur = epoch
        self._ekey = pack_hdr(MsgHdr(epoch, 0))
        self.E_new = epoch
        self.role = role
        self.Accepted = MsgHdr(epoch, 0)
        self.Committed = MsgHdr(epoch, 0)
        self.Next = MsgHdr(epoch, 1)
        self.Count = 0
        self._accept_sst.write_local(self.node_id, self.Accepted)
        self._commit_sst.write_local(self.node_id, CommitRow(self.Committed, 0))
        self._vote_sst.write_local(self.node_id, Vote(epoch, MsgHdr(epoch, 0)))
        probe = self.engine.probe
        if probe is not None:
            if role is Role.LEADER:
                probe.note(self.cluster, "leader", self.node_id,
                           term=epoch)
            probe.note(self.cluster, "accept", self.node_id,
                       slot=self.Accepted)
