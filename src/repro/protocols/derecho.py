"""Derecho: virtual-synchrony atomic broadcast over RDMA (§4.1, §5).

The baseline Acuerdo is most directly compared against.  The behaviours
the paper's analysis attributes Derecho's latency gap to are modelled
explicitly:

1. **two writes per message** — data is written with one RDMA write and
   a separate per-pair counter is incremented with a second write; with
   the 80-byte wire minimum this doubles small-message bandwidth cost;
2. **all-node commit** — a message is delivered only once *every* active
   node has received it (virtual synchrony), so the cluster runs at the
   speed of its slowest member;
3. **commit-based ring-slot reuse** — a slot is reclaimed only when the
   message is committed across all active nodes, magnifying the impact
   of one slow node under memory pressure;
4. **view changes** — failures are hard outages: the survivors wedge,
   agree on a new view that configures the failed node out, trim the
   ragged edge, and resume.

Two modes, as evaluated in Fig. 8: ``leader`` (only node 0 sends) and
``all`` (every node proposes in round-robin order, with null messages
filling idle senders' turns so the round-robin order never stalls).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.protocols.base import BroadcastSystem, CommitCallback, Replica
from repro.substrate import (RdmaParams, RingBuffer, SharedStateTable,
                             build_substrate)
from repro.sim.engine import Engine, us
from repro.sim.process import ProcessConfig


class _Null:
    def __repr__(self) -> str:  # pragma: no cover
        return "<derecho-null>"


NULL = _Null()


class _Hole:
    """Placeholder for a round whose payload has not yet arrived (its
    RDMC bulk is still in flight while later ring messages landed)."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<hole>"


HOLE = _Hole()


class _RdmcMarker:
    """Ring metadata for a payload travelling over the RDMC relay tree."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover
        return f"<rdmc {self.size}B>"


def rdmc_children(position: int, n: int) -> list[int]:
    """Children of ``position`` in a binomial broadcast tree over ``n``
    slots (root = 0): in round k every holder p < 2^k forwards to
    p + 2^k, so p's children are the p + 2^k that it is the first
    holder able to serve."""
    children = []
    k = 0
    while (1 << k) <= position:
        k += 1
    while position + (1 << k) < n:
        children.append(position + (1 << k))
        k += 1
    return children


@dataclass
class DerechoConfig:
    """Cost and behaviour knobs for a Derecho deployment.

    ``broadcast_cpu_ns`` is higher than Acuerdo's: sending means posting
    two WQEs and updating per-pair counters, and delivery requires
    evaluating SST predicates over all rows rather than one quorum test.
    """

    mode: str = "leader"                 # "leader" or "all"
    ring_capacity: int = 8192
    signal_interval: int = 1000
    broadcast_cpu_ns: int = 1_500        # two WQEs + per-pair counters
    accept_cpu_ns: int = 700             # data + counter handling per msg
    deliver_cpu_ns: int = 300
    predicate_cpu_ns: int = 400          # per-poll SST predicate scan
    sst_push_period_ns: int = us(10)
    max_broadcasts_per_poll: int = 32    # keep heartbeats flowing in bursts
    # RDMC: payloads at or above this size travel over a binomial relay
    # tree (peer-to-peer) instead of leader-direct writes, spreading the
    # bandwidth load off the sender's link (§4.1: "for very large
    # messages, Derecho can use a peer-to-peer delivery system").
    # ``None`` disables relaying (all messages leader-direct).
    rdmc_threshold_bytes: Optional[int] = 16_384
    relay_cpu_ns: int = 900              # per-forward relay handling
    # Headroom over a fully loaded poll turn, as for Acuerdo; otherwise
    # a burst of sends masquerades as leader failure.
    heartbeat_timeout_ns: int = us(400)
    wedge_timeout_ns: int = us(120)      # max wait for everyone to wedge
    process: ProcessConfig = field(default_factory=ProcessConfig)


@dataclass
class _Row:
    """One node's SST row (its shared state, overwritten in place)."""

    received: tuple        # per-sender receive counts, current view
    delivered: int         # global round-robin index delivered up to
    hb: int
    wedged: bool
    view: int
    proposal: Optional[tuple] = None  # (view_no, members, trim_point)


class DerechoNode(Replica):
    """One Derecho replica."""

    def __init__(self, cluster: "DerechoCluster", node_id: int, cfg: DerechoConfig):
        super().__init__(cluster, node_id, cfg, name=f"derecho{node_id}")
        self.view = 0
        self.members: list[int] = list(cluster.node_ids)
        self.senders: list[int] = cluster.senders_for(self.members)
        self.msgs: dict[int, list[Any]] = {s: [] for s in self.senders}
        self.delivered_upto = 0          # next global RR index to deliver
        self.sent_rounds = 0             # my rounds sent (if I am a sender)
        self._round_seq: dict[int, int] = {}   # my round -> my ring seq
        self._round_floor = 0                  # rounds below it are dropped
        self._cbs: dict[int, CommitCallback] = {}  # my round -> ack
        self._hb = 0
        self._last_push = 0
        self._peer_hb: dict[int, tuple[int, int]] = {p: (-1, 0) for p in self.members}
        self.wedged = False
        self._wedged_at: Optional[int] = None
        self._seen_sst_version = -1
        self.excluded = False  # configured out of the view while alive
        # RDMC bulk state: payloads received over the relay tree, and
        # ring markers waiting for their bulk to arrive.
        self._bulk: dict[tuple, tuple[Any, int]] = {}   # (view,sender,rnd) -> (payload,size)
        self._pending_markers: dict[int, list[tuple[int, int, int]]] = {}
        self._mon_claimed_view = -1   # last view announced to monitors
        self._mon_floor = 0           # ring floor last announced to monitors

    # ------------------------------------------------------------- SST helpers

    def _row(self, owner: int) -> _Row:
        return self.cluster.sst.read(self.node_id, owner)

    def _my_row(self) -> _Row:
        return self._row(self.node_id)

    def _push_row(self, **updates: Any) -> None:
        row = dataclasses.replace(self._my_row(), **updates)
        self.cluster.sst.set_and_push(self.node_id, row,
                                      earliest_ns=self.cpu.busy_until)

    # --------------------------------------------------------------- event loop

    def on_poll(self) -> None:
        if self.excluded:
            return
        got = self._drain_bulk()
        got |= self._drain_rings()
        sst_version = self.cluster.sst.version(self.node_id)
        changed = got or sst_version != self._seen_sst_version
        if changed:
            self._update_peer_hb()
        if not self.wedged:
            self._maybe_send()
            if changed:
                # Predicate evaluation only when a row or ring changed —
                # otherwise the poll is the L1-resident no-op of §3.2.
                self._deliver_stable()
                self._release_slots()
            self._check_peers()
        if changed or self.wedged:
            self._view_change_step()
        self._seen_sst_version = self.cluster.sst.version(self.node_id)
        self._maybe_push()

    # --------------------------------------------------------- poll elision

    def park_ready(self) -> bool:
        if self.excluded:
            # Configured out: on_poll is a permanent no-op.  Park on the
            # doorbell alone (stray deposits wake, no-op, re-park).
            return True
        if self.cluster.bulk_inboxes[self.node_id]:
            return False
        for s in self.senders:
            ring = self.cluster.rings.get(s)
            if ring is None or self.node_id not in ring._receivers:
                continue
            if ring.receiver(self.node_id)._ready:
                return False
        if self.cluster.sst.version(self.node_id) != self._seen_sst_version:
            return False
        if self.pending:
            return False
        if (not self.wedged and self.node_id in self.senders
                and len(self.senders) > 1):
            # Null hole-filling still owed (e.g. the ring was full).
            max_round = max(len(self.msgs.get(s, [])) for s in self.senders)
            if self.sent_rounds < max_round:
                return False
        return True

    def park_deadline(self) -> Optional[int]:
        if self.excluded:
            return None
        # The periodic SST heartbeat push (>= comparison) dominates; peer
        # expiries (strict >) and the wedge timeout (strict >) still bound
        # the wake when a heartbeat was last seen long ago.
        d = self._last_push + self.cfg.sst_push_period_ns
        for p in self.members:
            if p == self.node_id:
                continue
            t = self._peer_hb.get(p, (-1, 0))[1] + self.cfg.heartbeat_timeout_ns + 1
            if t < d:
                d = t
        if self.wedged and self._wedged_at is not None:
            t = self._wedged_at + self.cfg.wedge_timeout_ns + 1
            if t < d:
                d = t
        return d

    # ------------------------------------------------------------------- send

    def _maybe_send(self) -> None:
        if self.node_id not in self.senders:
            return
        ring = self.cluster.rings[self.node_id]
        budget = self.cfg.max_broadcasts_per_poll
        probe = self.engine.probe
        if (probe is not None and self.cfg.mode == "leader"
                and self.view > self._mon_claimed_view):
            # Leader mode has exactly one sender per view; claiming the
            # view as a term lets SingleLeaderPerTerm catch split views.
            self._mon_claimed_view = self.view
            probe.note(self.cluster, "leader", self.node_id, term=self.view)
        k = len(self.senders)
        my_idx = self.senders.index(self.node_id)
        while self.pending and budget > 0:
            budget -= 1
            payload, size, cb = self.pending[0]
            if ring.free_slots() <= 0:
                ring.stalls += 1
                self.engine.trace.count("derecho.ring_full")
                return
            self.cpu.charge(self.cfg.broadcast_cpu_ns)
            if probe is not None:
                probe.mark(payload, "propose", self.engine.now)
            thr = self.cfg.rdmc_threshold_bytes
            if thr is not None and size >= thr and len(self.members) > 2:
                # RDMC: tiny marker through the ring, payload over the
                # binomial relay tree (leader sends ~log n copies, not
                # n-1).
                seq = ring.try_send((self.view, self.sent_rounds, _RdmcMarker(size)),
                                    64, earliest_ns=self.cpu.busy_until)
                self._bulk[(self.view, self.node_id, self.sent_rounds)] = (payload, size)
                self._forward_bulk(self.node_id, self.sent_rounds, payload, size)
                self.engine.trace.count("derecho.rdmc_send")
            else:
                msg = (self.view, self.sent_rounds, payload)
                if probe is not None:
                    # The ring message tuple is the wire carrier.
                    probe.bind(msg, payload)
                seq = ring.try_send(msg, size,
                                    earliest_ns=self.cpu.busy_until)
            self.pending.pop(0)
            self._round_seq[self.sent_rounds] = seq
            if probe is not None:
                # Global round-robin index; views restart it, so the
                # monitor slot is the (view, index) pair.
                probe.note(self.cluster, "slot_bind", self.node_id,
                           slot=(self.view, self.sent_rounds * k + my_idx),
                           key=payload, seq=seq, extra=ring.capacity)
            if cb is not None:
                self._cbs[self.sent_rounds] = cb
            self.sent_rounds += 1
            self.engine.trace.count("derecho.broadcast")
        # Round-robin hole filling: if another sender has raced ahead,
        # emit a null so the global order can keep advancing.
        if len(self.senders) > 1:
            max_round = max(len(self.msgs.get(s, [])) for s in self.senders)
            while self.sent_rounds < max_round:
                seq = ring.try_send((self.view, self.sent_rounds, NULL), 1)
                if seq is None:
                    return
                self._round_seq[self.sent_rounds] = seq
                if probe is not None:
                    # Null filler: slot=None, no reuse-safety obligation.
                    probe.note(self.cluster, "slot_bind", self.node_id,
                               seq=seq, extra=ring.capacity)
                self.sent_rounds += 1
                self.engine.trace.count("derecho.null_send")

    # ------------------------------------------------------------------ RDMC

    def _relay_order(self, sender: int) -> list[int]:
        """Tree slot order for ``sender``'s transfers: sender first,
        remaining members in id order (all nodes derive it identically)."""
        return [sender] + [m for m in sorted(self.members) if m != sender]

    #: RDMC transfers are chunked so small control traffic (heartbeats,
    #: SST rows, ring markers) interleaves on the link instead of
    #: waiting behind a multi-megabyte write — as real RDMC does.  The
    #: chunk size sits at the NIC's QoS bulk threshold so chunks ride
    #: the bulk lane over the dedicated bulk QPs.
    RDMC_CHUNK = 16_384

    def _forward_bulk(self, sender: int, rnd: int, payload: Any, size: int) -> None:
        """Forward a bulk payload to this node's children in the tree,
        chunked and paced at link speed."""
        order = self._relay_order(sender)
        if self.node_id not in order:
            return
        pos = order.index(self.node_id)
        fabric = self.cluster.fabric
        chunk_gap = fabric.params.tx_serialization_ns(self.RDMC_CHUNK)
        nchunks = max(1, (size + self.RDMC_CHUNK - 1) // self.RDMC_CHUNK)
        for child_pos in rdmc_children(pos, len(order)):
            child = order[child_pos]
            if self.cluster.nodes[child].crashed:
                continue
            self.cpu.charge(self.cfg.relay_cpu_ns)
            region, rkey = self.cluster.bulk_regions[child]
            for ci in range(nchunks):
                csize = min(self.RDMC_CHUNK, size - ci * self.RDMC_CHUNK)
                # The payload object rides the last chunk; earlier chunks
                # carry only their byte cost.
                body = (payload, size) if ci == nchunks - 1 else None
                self.engine.schedule(
                    ci * chunk_gap,
                    fabric.write, self.node_id, child, region, rkey,
                    (self.view, sender, rnd, ci, nchunks), body, csize,
                    False, ("rdmc", sender, rnd), self.cpu.busy_until, "bulk")
            self.engine.trace.count("derecho.rdmc_relay")

    def _drain_bulk(self) -> bool:
        inbox = self.cluster.bulk_inboxes[self.node_id]
        got = False
        while inbox:
            (view, sender, rnd, _ci, _nchunks), body = inbox.pop(0)
            if view != self.view:
                self.engine.trace.count("derecho.stale_view_drop")
                continue
            if body is None:
                continue  # non-final chunk: bytes only (FIFO per QP
                          # guarantees all chunks precede the final one)
            payload, size = body
            self._bulk[(view, sender, rnd)] = (payload, size)
            got = True
            # Relay duty: pass it down the tree before consuming it.
            self._forward_bulk(sender, rnd, payload, size)
            self._complete_bulk(sender)
        return got

    def _complete_bulk(self, sender: int) -> None:
        """Fill reserved slots whose bulk has arrived (in marker order)."""
        pending = self._pending_markers.get(sender)
        while pending:
            view, rnd, _size = pending[0]
            entry = self._bulk.get((view, sender, rnd))
            if entry is None:
                return
            pending.pop(0)
            payload, _sz = entry
            self._store_put(sender, rnd, payload)
            self.cpu.charge(self.cfg.accept_cpu_ns)
            probe = self.engine.probe
            if probe is not None:
                probe.mark(payload, "accept", self.engine.now)
                probe.note(
                    self.cluster, "accept_one", self.node_id,
                    slot=(view, rnd * len(self.senders) + self.senders.index(sender)),
                    key=payload)
            self._push_received()

    # ---------------------------------------------------------------- receive

    def _drain_rings(self) -> bool:
        got = False
        probe = self.engine.probe
        k = len(self.senders)
        for si, s in enumerate(self.senders):
            ring = self.cluster.rings.get(s)
            if ring is None or self.node_id not in ring._receivers:
                continue
            for _seq, (view, rnd, payload) in ring.receiver(self.node_id).poll():
                if view != self.view:
                    # In-flight leftovers from a superseded view.
                    self.engine.trace.count("derecho.stale_view_drop")
                    continue
                if isinstance(payload, _RdmcMarker):
                    # Bulk travels the relay tree; reserve the slot so
                    # later small messages don't close the prefix over it.
                    self._store_put(s, rnd, HOLE)
                    self._pending_markers.setdefault(s, []).append(
                        (view, rnd, payload.size))
                    self._complete_bulk(s)
                    got = True
                    continue
                self._store_put(s, rnd, payload)
                self.cpu.charge(self.cfg.accept_cpu_ns)
                if payload is not NULL and probe is not None:
                    probe.mark(payload, "accept", self.engine.now)
                    probe.note(self.cluster, "accept_one", self.node_id,
                               slot=(view, rnd * k + si), key=payload)
                got = True
        if got:
            self._push_received()
        return got

    def _store_put(self, sender: int, rnd: int, payload: Any) -> None:
        store = self.msgs.setdefault(sender, [])
        while len(store) <= rnd:
            store.append(HOLE)
        store[rnd] = payload

    def _received_count(self, sender: int) -> int:
        """Contiguous received prefix — holes (bulk still in flight)
        stop the count, so stability can never cover a missing payload."""
        store = self.msgs.get(sender, [])
        n = 0
        for v in store:
            if v is HOLE:
                break
            n += 1
        return n

    def _push_received(self) -> None:
        counts = tuple(self._received_count(s) for s in self.senders)
        self._push_row(received=counts, hb=self._next_hb())

    def _next_hb(self) -> int:
        self._hb += 1
        return self._hb

    # ---------------------------------------------------------------- deliver

    def _min_received(self, members: Optional[list[int]] = None) -> tuple:
        """Per-sender receive counts at the slowest of ``members``
        (default: the whole view) — virtual synchrony's stability
        frontier."""
        mins = None
        for m in (members if members is not None else self.members):
            row = self._row(m)
            counts = row.received if row.view == self.view else None
            if counts is None or len(counts) != len(self.senders):
                return tuple(0 for _ in self.senders)
            mins = counts if mins is None else tuple(min(a, b) for a, b in zip(mins, counts))
        return mins if mins is not None else ()

    def _deliver_stable(self) -> None:
        self.cpu.charge(self.cfg.predicate_cpu_ns)
        mins = self._min_received()
        k = len(self.senders)
        progressed = False
        probe = self.engine.probe
        while True:
            g = self.delivered_upto
            s = self.senders[g % k]
            rnd = g // k
            if mins[g % k] <= rnd:
                break
            store = self.msgs.get(s, [])
            if rnd >= len(store) or store[rnd] is HOLE:
                break  # stable but not yet locally received (can't happen
                       # with prefix-based counts; defensive)
            payload = store[rnd]
            self.delivered_upto += 1
            progressed = True
            self.cpu.charge(self.cfg.deliver_cpu_ns)
            if payload is not NULL and payload is not None:
                if probe is not None:
                    probe.mark(payload, "commit", self.engine.now)
                    probe.note(self.cluster, "commit", self.node_id,
                               slot=(self.view, g), key=payload)
                self.cluster.record_delivery(self.node_id, payload)
            if s == self.node_id:
                cb = self._cbs.pop(rnd, None)
                if cb is not None:
                    self.engine.schedule_at(
                        max(self.engine.now, self.cpu.busy_until), cb, g)
            self.engine.trace.count("derecho.deliver")
        if progressed:
            self._push_row(delivered=self.delivered_upto, hb=self._next_hb())

    # ------------------------------------------------------------ slot reuse

    def _release_slots(self) -> None:
        """Commit-based reuse: a slot frees only once the message is
        delivered at *all* active members (contrast Acuerdo's
        accept-based release — §4.1)."""
        if self.node_id not in self.senders:
            return
        min_delivered = min((self._row(m).delivered for m in self.members), default=0)
        k = len(self.senders)
        my_idx = self.senders.index(self.node_id)
        # Rounds of mine fully delivered everywhere:
        full_rounds = min_delivered // k + (1 if min_delivered % k > my_idx else 0)
        if full_rounds > 0:
            # Earlier rounds can only repeat releases already made.
            last = full_rounds - 1
            for rnd in range(self._round_floor, last):
                self._round_seq.pop(rnd, None)
            self._round_floor = max(self._round_floor, last)
            seq = self._round_seq.get(last)
            if seq is not None:
                ring = self.cluster.rings[self.node_id]
                for m in self.members:
                    ring.mark_released(m, seq + 1)
                probe = self.engine.probe
                if probe is not None:
                    floor = ring.released_floor()
                    if floor > self._mon_floor:
                        self._mon_floor = floor
                        probe.note(self.cluster, "slot_release",
                                   self.node_id, seq=floor)

    # ------------------------------------------------------------ view change

    def _update_peer_hb(self) -> None:
        """Track peer liveness every poll — including while wedged, or a
        healthy-but-wedged peer would be mistaken for dead and the view
        change would split."""
        now = self.engine.now
        for p in self.members:
            if p == self.node_id:
                continue
            row = self._row(p)
            hb = row.hb if row is not None else 0
            last, _ = self._peer_hb.get(p, (-1, 0))
            if hb != last:
                self._peer_hb[p] = (hb, now)

    def _check_peers(self) -> None:
        now = self.engine.now
        dead = [p for p in self.members
                if p != self.node_id
                and now - self._peer_hb.get(p, (-1, 0))[1] > self.cfg.heartbeat_timeout_ns]
        if dead and not self.wedged:
            self._wedge()

    def _wedge(self) -> None:
        self.wedged = True
        self._wedged_at = self.engine.now
        self._push_row(wedged=True, hb=self._next_hb())
        self.engine.trace.count("derecho.wedge")

    def _view_change_step(self) -> None:
        if not self.wedged:
            # Follow a proposal even if we had not noticed the failure.
            for m in self.members:
                row = self._row(m)
                if row and row.proposal and row.proposal[0] > self.view:
                    self._wedge()
                    break
            else:
                return
        now = self.engine.now
        live = [m for m in self.members
                if m == self.node_id
                or now - self._peer_hb.get(m, (-1, 0))[1] <= self.cfg.heartbeat_timeout_ns]
        ranks_ok = [m for m in self.members
                    if m == self.node_id or (self._row(m) and self._row(m).wedged)]
        everyone_ready = set(ranks_ok) >= set(live)
        timed_out = self._wedged_at is not None and \
            now - self._wedged_at > self.cfg.wedge_timeout_ns
        proposal = None
        for m in sorted(self.members):
            row = self._row(m)
            if row and row.proposal and row.proposal[0] == self.view + 1:
                proposal = row.proposal
                break
        # Only a majority of the current view may lead a view change: a
        # member cut off from the rest would otherwise install a view of
        # itself alone.  Following a majority's proposal is unaffected.
        if proposal is None and min(live) == self.node_id \
                and 2 * len(live) > len(self.members) \
                and (everyone_ready or timed_out):
            # I lead the view change.  The ragged-edge trim must cover
            # everything ANY member might already have delivered.  A
            # departing member's delivery frontier is bounded by its
            # *copies* of our receive counts, which are bounded by the
            # counts we froze at wedge time — so the safe trim is the
            # minimum over the SURVIVORS' own rows.  Including the
            # suspected-dead node's stale row here would trim below a
            # frontier it may have delivered (found by hypothesis).
            mins = self._min_received(members=sorted(live))
            proposal = (self.view + 1, tuple(sorted(live)), mins)
            self._push_row(proposal=proposal, hb=self._next_hb())
        if proposal is not None:
            self._install_view(proposal)

    def _install_view(self, proposal: tuple) -> None:
        view_no, members, trim = proposal
        if self.node_id not in members:
            # The survivors configured us out (we looked dead while
            # descheduled).  A removed node stops participating; real
            # Derecho re-admits it through an explicit join protocol,
            # which is out of scope here.
            self.excluded = True
            self.wedged = True
            self.engine.trace.count("derecho.excluded")
            return
        old_senders = self.senders
        # Ragged-edge handling: deliver everything stable in the old
        # view, discard the rest (clients were never acked for those).
        if len(trim) == len(old_senders):
            k = len(old_senders)
            while True:
                g = self.delivered_upto
                s = old_senders[g % k]
                rnd = g // k
                if trim[g % k] <= rnd or rnd >= len(self.msgs.get(s, [])):
                    break
                payload = self.msgs[s][rnd]
                self.delivered_upto += 1
                if payload is not NULL and payload is not None:
                    self.cluster.record_delivery(self.node_id, payload)
        self.view = view_no
        self.members = list(members)
        self.senders = self.cluster.senders_for(self.members)
        self.msgs = {s: [] for s in self.senders}
        self._bulk = {}
        self._pending_markers = {}
        self.delivered_upto = 0
        self.sent_rounds = 0
        self._round_seq = {}
        self._round_floor = 0
        # Unacked messages are abandoned; real clients re-send on timeout.
        self._cbs = {}
        self.wedged = False
        self._wedged_at = None
        self._peer_hb = {p: (-1, self.engine.now) for p in self.members}
        self.cluster.on_view_installed(self.node_id, view_no, self.members)
        # Keep echoing the proposal after installing: rows overwrite each
        # other, so clearing it could hide the view change from peers
        # that have not read it yet.
        self._push_row(received=tuple(0 for _ in self.senders), delivered=0,
                       wedged=False, view=view_no, proposal=proposal, hb=self._next_hb())
        self.engine.trace.count("derecho.view_install")

    # ---------------------------------------------------------------- pushes

    def _maybe_push(self) -> None:
        now = self.engine.now
        if now - self._last_push >= self.cfg.sst_push_period_ns:
            self._last_push = now
            self._push_row(hb=self._next_hb())


class DerechoCluster(BroadcastSystem):
    """A Derecho group in ``leader`` or ``all`` mode."""

    client_hop_ns = 1_100   # RDMA client transport, like Acuerdo's

    def __init__(self, engine: Engine, n: int, config: Optional[DerechoConfig] = None,
                 rdma_params: Optional[RdmaParams] = None, record_deliveries: bool = True):
        super().__init__(engine, n, record_deliveries)
        self.cfg = config or DerechoConfig()
        self.name = f"derecho-{self.cfg.mode}"
        if self.cfg.mode not in ("leader", "all"):
            raise ValueError(f"unknown derecho mode {self.cfg.mode!r}")
        self.fabric = self.substrate = build_substrate(
            "rdma", engine, node_ids=self.node_ids, params=rdma_params)
        senders = self.senders_for(self.node_ids)
        # Derecho's two-write send path and commit-based slot reuse:
        self.rings: dict[int, RingBuffer] = {
            s: RingBuffer(self.fabric, s, self.node_ids,
                          capacity=self.cfg.ring_capacity,
                          writes_per_message=2,
                          signal_interval=self.cfg.signal_interval,
                          name=f"derecho.ring.{s}")
            for s in senders}
        # RDMC bulk landing zones: one registered region per node.
        self.bulk_inboxes: dict[int, list] = {i: [] for i in self.node_ids}
        self.bulk_regions: dict[int, tuple] = {}
        for i in self.node_ids:
            region = self.fabric.register(
                i, f"derecho.bulk.{i}", 1 << 24,
                on_write=lambda key, value, size, i=i:
                    self.bulk_inboxes[i].append((key, value)))
            self.bulk_regions[i] = (region, region.grant())
        init_row = _Row(received=tuple(0 for _ in senders), delivered=0, hb=0,
                        wedged=False, view=0)
        self.sst = SharedStateTable(self.fabric, "derecho", self.node_ids,
                                    row_size_bytes=8 * (n + 4), initial=init_row,
                                    signal_interval=self.cfg.signal_interval)
        self.nodes: dict[int, DerechoNode] = {
            i: DerechoNode(self, i, self.cfg) for i in self.node_ids}
        # Poll-elision doorbells: ring slots, SST rows and RDMC bulk
        # chunks all arrive as one-sided writes into the node's NIC.
        for i, nd in self.nodes.items():
            self.fabric.nic(i).waker = nd
        self._rr_next = 0

    def senders_for(self, members: list[int]) -> list[int]:
        if self.cfg.mode == "leader":
            return [min(members)]
        return sorted(members)

    def submit(self, payload: Any, size_bytes: int,
               on_commit: Optional[CommitCallback] = None) -> bool:
        if self.cfg.mode != "all":
            return super().submit(payload, size_bytes, on_commit)
        ldr = self.leader_id()
        if ldr is None:
            return False
        # Clients spread load round-robin over all senders.
        live = [s for s in self.nodes[ldr].senders if not self.nodes[s].crashed]
        if not live:
            return False
        target = live[self._rr_next % len(live)]
        self._rr_next += 1
        self.obs_begin(payload)
        self.nodes[target].client_broadcast(payload, size_bytes, on_commit)
        return True

    def leader_id(self) -> Optional[int]:
        for nd in self.nodes.values():
            if not nd.crashed and not nd.wedged:
                sends = nd.senders
                live = [s for s in sends if not self.nodes[s].crashed]
                if live:
                    return min(live)
        return None

    def on_view_installed(self, node_id: int, view_no: int, members: list[int]) -> None:
        # Rebuild this sender's ring set lazily: new senders need rings.
        for s in self.senders_for(members):
            if s not in self.rings:
                self.rings[s] = RingBuffer(self.fabric, s, members,
                                           capacity=self.cfg.ring_capacity,
                                           writes_per_message=2,
                                           signal_interval=self.cfg.signal_interval,
                                           name=f"derecho.ring.{s}.v{view_no}")
