"""The shipped safety monitors.

Each consumes only the normalized event vocabulary documented in
:mod:`repro.monitors.registry`, so one implementation covers all nine
protocol backends; per-event work is a handful of dict operations.
"""

from __future__ import annotations

from array import array
from typing import Any, Optional

from repro.monitors.registry import Monitor, MonitorEvent


def _same_value(a: Any, b: Any) -> bool:
    """Value-identity equality: payloads travel un-serialized through
    the simulator, so object identity is the fast path; `==` covers
    forged events built from equal-but-distinct objects."""
    if a is b:
        return True
    try:
        return bool(a == b)
    except Exception:
        return False


class SingleLeaderPerTerm(Monitor):
    """At most one node ever claims leadership of a given term.

    Acuerdo epoch rounds, Raft terms, Zab epochs, Paxos ballots, Mu and
    DARE terms and Derecho view numbers all map onto ``term``; the
    election safety argument of every one of them reduces to this
    claim-uniqueness property.
    """

    name = "single_leader_per_term"
    KINDS = frozenset({"leader"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        self._claims: dict[Any, MonitorEvent] = {}

    def on_mark(self, ev: MonitorEvent) -> None:
        first = self._claims.get(ev.term)
        if first is None:
            self._claims[ev.term] = ev
        elif first.node != ev.node:
            self.report(
                f"two leaders for term {ev.term!r}: node {first.node} "
                f"(claimed at {first.t} ns) and node {ev.node}",
                witness=(first, ev), t=ev.t)


class LogPrefixAgreement(Monitor):
    """Every pair of per-node delivery sequences is prefix-related.

    Online form of the Total Order property (§2.2): position ``i`` of
    the delivery order is fixed by whichever node delivers it first;
    any node later delivering a *different* payload at position ``i``
    is a divergent log.  Rides the central ``deliver`` events emitted
    by ``BroadcastSystem.record_delivery``, so every backend is covered
    with no per-protocol code.

    The canonical order grows with every delivered position, so it is
    kept as columns -- first-delivery time and node in ``array('q')``,
    the payload reference in a list (pinning the object keeps its id()
    stable for the run) -- and a divergence rebuilds the first
    delivery's event field for field.  A first delivery carrying more
    than those three fields (only a forged one can) is kept whole.
    """

    name = "log_prefix_agreement"
    KINDS = frozenset({"deliver"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        self._t = array("q")
        self._node = array("q")
        self._key: list[Any] = []
        self._whole: dict[int, MonitorEvent] = {}   # position -> odd event
        self._pos: dict[int, int] = {}

    def on_mark(self, ev: MonitorEvent) -> None:
        i = self._pos.get(ev.node, 0)
        keys = self._key
        if i < len(keys):
            first = keys[i]
            # Identity check inlined: payloads travel un-serialized, so
            # matching deliveries are almost always the same object.
            if first is not ev.key and not _same_value(first, ev.key):
                canon = self._first_delivery(i)
                self.report(
                    f"divergent delivery at position {i}: node {ev.node} "
                    f"delivered {ev.key!r} where node {canon.node} "
                    f"delivered {first!r}",
                    witness=(canon, ev), t=ev.t)
        else:
            # Kind and group are this monitor's by dispatch.
            if (ev.term is ev.slot is ev.seq is ev.extra is None
                    and type(ev.t) is int and type(ev.node) is int
                    and ev.protocol == self.ctx.protocol):
                self._t.append(ev.t)
                self._node.append(ev.node)
            else:
                self._whole[i] = ev
                self._t.append(0)
                self._node.append(0)
            keys.append(ev.key)
        self._pos[ev.node] = i + 1

    def _first_delivery(self, i: int) -> MonitorEvent:
        """The event that fixed position ``i`` of the canonical order."""
        ev = self._whole.get(i)
        if ev is not None:
            return ev
        ctx = self.ctx
        return MonitorEvent(self._t[i], ctx.group, ctx.protocol, "deliver",
                            self._node[i], key=self._key[i])


class _AcceptBook:
    """One group's accept bookkeeping, and how long each slot's part of
    it stays readable.

    ``cum`` holds each node's cumulative accepted frontier (``accept`` /
    ``accept_trunc``) and ``per`` each slot's per-slot accepts
    (``accept_one``).  A slot's accepts are read at its commit (the
    quorum check) and at the release of a ring sequence bound to it, so
    they are dropped at the later of the two, and an ``accept_one`` for
    a slot already past both is not kept.  Nothing here grows with the
    run: a watermark stands in for the set of every committed slot.

    ``proven`` is the highest slot proven at its group-wide first
    commit.  Every ``commit`` emit site sits at in-order delivery
    (``core/node.py``, ``remotelog.py``, ``tcpreplica.py``, ``raft.py``,
    ``paxos.py``, ``zab.py``, ``derecho.py``): a node commits its slots
    in increasing order without skipping one another node committed, so
    the group-wide first commits arrive in increasing slot order and a
    commit at or below ``proven`` is a re-commit.  Slots whose check
    failed are few and are kept apart in ``failed``, so that a re-commit
    of one is checked (and reported) again.  ``bound`` counts each
    slot's live ring bindings; every binding precedes its slot's first
    commit.
    """

    __slots__ = ("cum", "cum_ev", "per", "proven", "failed", "bound")

    def __init__(self):
        self.cum: dict[int, Any] = {}                # node -> max slot
        self.cum_ev: dict[int, MonitorEvent] = {}
        self.per: dict[Any, dict[int, MonitorEvent]] = {}  # slot -> accepts
        self.proven: Any = None
        self.failed: set = set()
        self.bound: dict[Any, int] = {}              # slot -> live bindings

    def on_accept(self, ev: MonitorEvent) -> None:
        """Fold one ``accept``, ``accept_one`` or ``accept_trunc``."""
        kind = ev.kind
        if kind == "accept":
            cur = self.cum.get(ev.node)
            if cur is None or ev.slot > cur:
                self.cum[ev.node] = ev.slot
                self.cum_ev[ev.node] = ev
        elif kind == "accept_one":
            slot = ev.slot
            if not self.recommit(slot) or slot in self.bound:
                self.per.setdefault(slot, {})[ev.node] = ev
        else:
            cur = self.cum.get(ev.node)
            if cur is not None and ev.slot < cur:
                self.cum[ev.node] = ev.slot
                self.cum_ev[ev.node] = ev

    def recommit(self, slot: Any) -> bool:
        """True when ``slot`` was proven at an earlier commit."""
        proven = self.proven
        return (proven is not None and slot <= proven
                and slot not in self.failed)

    def committed(self, slot: Any) -> None:
        """``slot``'s commit passed its quorum check (or, for a
        standalone ``SlotReuseSafety``, which checks none, happened)."""
        self.failed.discard(slot)
        if self.proven is None or slot > self.proven:
            self.proven = slot
        if slot not in self.bound:
            self.per.pop(slot, None)

    def bind(self, slot: Any) -> None:
        bound = self.bound
        bound[slot] = bound.get(slot, 0) + 1

    def release(self, slot: Any) -> None:
        bound = self.bound
        left = bound[slot] - 1
        if left:
            bound[slot] = left
        else:
            del bound[slot]
            if self.recommit(slot):
                self.per.pop(slot, None)


class CommitQuorumAccept(Monitor):
    """A committed slot was accepted by a write quorum first.

    Tracks each node's cumulative accepted frontier (``accept`` /
    ``accept_trunc``) and per-slot accept sets (``accept_one``); every
    ``commit`` of a slot must be covered by at least ``n // 2 + 1``
    acceptors — the majority floor all nine backends rely on (the
    all-replica protocols satisfy it trivially).  For per-slot accepts
    carrying a value identity, only accepts of the *same* value count
    (a quorum of accepts for a different value must not justify the
    commit).  Only a slot's first commit is checked, and a re-commit of
    a slot whose check failed; :class:`_AcceptBook` holds the state and
    bounds it.
    """

    name = "commit_quorum_accept"
    KINDS = frozenset({"accept", "accept_one", "accept_trunc", "commit"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        self._book = _AcceptBook()
        self._quorum = ctx.quorum

    def on_mark(self, ev: MonitorEvent) -> None:
        if ev.kind != "commit":
            self._book.on_accept(ev)
            return
        book, slot = self._book, ev.slot
        if book.recommit(slot):
            return
        acceptors, witness = self.quorum_of(slot, ev.key)
        if acceptors < self._quorum:
            book.failed.add(slot)
            self.report(
                f"slot {slot!r} committed at node {ev.node} with "
                f"only {acceptors} accept(s), quorum is "
                f"{self.ctx.quorum}",
                witness=(ev, *witness), t=ev.t)
        else:
            book.committed(slot)

    def quorum_of(self, slot: Any, key: Any = None) -> tuple[int, list]:
        """(acceptor count, witness events) covering ``slot``."""
        book = self._book
        count = 0
        witness: list[MonitorEvent] = []
        for node, frontier in book.cum.items():
            if frontier >= slot:
                count += 1
                witness.append(book.cum_ev[node])
        for aev in book.per.get(slot, {}).values():
            if key is None or aev.key is None or _same_value(aev.key, key):
                count += 1
                witness.append(aev)
        return count, witness


class SlotReuseSafety(Monitor):
    """Broadcast-ring slots are never reused while still live.

    The Acuerdo §4.1 novelty is *accept-based* slot release: a ring
    slot frees as soon as a quorum has accepted its message (Derecho
    releases later, on all-member delivery).  Two hazards are checked
    against the ``slot_bind`` / ``slot_release`` events:

    - **overwrite**: a bind at ring sequence ``s`` while ``s - floor``
      reaches the ring capacity would overwrite an unreleased slot;
    - **early release**: releasing a sequence whose message has not
      been accepted by a quorum yet (the release policy ran ahead of
      the accept frontier — replayed slots could then diverge).

    Accept bookkeeping is an :class:`_AcceptBook`; when
    :class:`CommitQuorumAccept` runs in the same group (the default
    set), this monitor shares its book instead of keeping a second one
    and unsubscribes from the accept and commit events — halving the
    handler work on the hottest event kind without changing what either
    monitor observes.  Standalone, it still reads commits: they end a
    slot's accept lifetime.
    """

    name = "slot_reuse_safety"
    KINDS = frozenset({"accept", "accept_one", "accept_trunc", "commit",
                       "slot_bind", "slot_release"})

    def __init__(self, registry, ctx):
        super().__init__(registry, ctx)
        # per ring owner: {"cap": int|None, "floor": int, "bound": {...}}
        self._rings: dict[int, dict] = {}
        self._book = _AcceptBook()
        self._quorum = ctx.quorum

    def bind_group(self, monitors) -> None:
        for m in monitors:
            if isinstance(m, CommitQuorumAccept):
                self._book = m._book
                self.KINDS = frozenset({"slot_bind", "slot_release"})
                return

    def _ring(self, owner: int) -> dict:
        r = self._rings.get(owner)
        if r is None:
            r = {"cap": None, "floor": 0, "bound": {}}
            self._rings[owner] = r
        return r

    def on_mark(self, ev: MonitorEvent) -> None:
        # Branches ordered by event frequency (bind dominates).
        kind = ev.kind
        if kind == "slot_bind":
            r = self._ring(ev.node)
            if ev.extra is not None:
                r["cap"] = ev.extra
            cap = r["cap"]
            if cap is not None and ev.seq - r["floor"] >= cap:
                live = ev.seq - cap
                prior = r["bound"].get(live)
                self.report(
                    f"ring {ev.node} bound seq {ev.seq} (capacity {cap}) "
                    f"over unreleased seq {live}",
                    witness=tuple(e for e in (prior, ev) if e is not None),
                    t=ev.t)
            r["bound"][ev.seq] = ev
            if ev.slot is not None:
                self._book.bind(ev.slot)
        elif kind == "slot_release":
            r = self._ring(ev.node)
            upto = ev.seq
            # An ``extra="admin"`` release is a membership re-baseline
            # (eviction of a suspected-dead receiver, epoch turnover
            # re-admitting it): the freed tail is recovered by the next
            # epoch's diff, not covered by the accept rule, so the
            # quorum obligation is waived.  Bound slots still pop and
            # the floor still advances — the overwrite check above
            # keeps guarding actual reuse.
            admin = ev.extra == "admin"
            book = self._book
            for s in range(r["floor"], upto):
                bev = r["bound"].pop(s, None)
                if bev is None or bev.slot is None:
                    continue   # filler/null send: no safety obligation
                if not admin and not self._quorum_accepted(bev.slot):
                    self.report(
                        f"ring {ev.node} released seq {s} (slot "
                        f"{bev.slot!r}) before a quorum of "
                        f"{self.ctx.quorum} accepted it",
                        witness=(bev, ev), t=ev.t)
                book.release(bev.slot)
            if upto > r["floor"]:
                r["floor"] = upto
        elif kind == "commit":
            self._book.committed(ev.slot)
        else:
            self._book.on_accept(ev)

    def _quorum_accepted(self, slot: Any) -> bool:
        book = self._book
        count = sum(1 for frontier in book.cum.values() if frontier >= slot)
        count += len(book.per.get(slot, ()))
        return count >= self._quorum


class SstMonotonic(Monitor):
    """SST rows never go backwards.

    §3.2's "acknowledge only the newest message" argument rests on SST
    rows carrying monotonically increasing values under last-writer-wins
    overwrite + FIFO delivery.  A *replayed* stale row is precisely a
    row going backwards at some holder — the regression this monitor
    catches from ``sst_row`` events (emitted by the SST apply hook the
    Byzantine injector installs while an SST attack is armed; honest
    runs emit none, so this monitor is free outside adversarial
    scenarios).

    Event mapping: ``key`` = SST name, ``seq`` = row owner, ``slot`` =
    new value, ``extra`` = value being overwritten.
    """

    name = "sst_monotonic"
    KINDS = frozenset({"sst_row"})

    def on_mark(self, ev: MonitorEvent) -> None:
        old, new = ev.extra, ev.slot
        if old is None or new is None:
            return
        try:
            regressed = new < old
        except TypeError:
            regressed = False
        if regressed:
            self.report(
                f"SST {ev.key!r} row {ev.seq} at holder {ev.node} went "
                f"backwards: {old!r} -> {new!r}",
                witness=(ev,), t=ev.t)
